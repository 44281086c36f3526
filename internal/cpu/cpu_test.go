package cpu

import (
	"os"
	"runtime"
	"strings"
	"testing"
)

// TestHasAVX2MatchesKernel: on Linux/amd64, HasAVX2 agrees with the
// flags the kernel reports, which it sets only for extensions the CPU has
// and the kernel has enabled (avx2 needs the YMM state saved).
func TestHasAVX2MatchesKernel(t *testing.T) {
	if runtime.GOOS != "linux" || runtime.GOARCH != "amd64" {
		if runtime.GOARCH != "amd64" && HasAVX2 {
			t.Fatal("HasAVX2 is true off amd64")
		}
		t.Skip("flags are read from /proc/cpuinfo on Linux/amd64")
	}
	info, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		t.Skip(err)
	}
	var flags []string
	for _, line := range strings.Split(string(info), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			flags = strings.Fields(list)
			break
		}
	}
	if flags == nil {
		t.Skip("no flags line in /proc/cpuinfo")
	}
	has := func(f string) bool {
		for _, g := range flags {
			if g == f {
				return true
			}
		}
		return false
	}
	if want := has("avx2") && has("popcnt"); HasAVX2 != want {
		t.Fatalf("HasAVX2 = %v, /proc/cpuinfo flags say %v", HasAVX2, want)
	}
}
