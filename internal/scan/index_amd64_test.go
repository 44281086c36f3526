package scan

import (
	"math/rand"
	"testing"
)

// TestStructuralAVX2MatchesBytes holds the stage-1 kernel to byteIndex at
// every length from 0 to 700, so every partial last block and every block
// count around multiples of 64 runs, over bytes dense in newlines and
// delimiters, with the bitmaps prefilled with garbage. One delimiter is a
// byte >= 0x80; one is 0, which the zeroed padding of the last block
// matches.
func TestStructuralAVX2MatchesBytes(t *testing.T) {
	if !hasAVX2 {
		t.Skip("CPU without AVX2")
	}
	r := rand.New(rand.NewSource(5))
	alphabet := []byte{'\n', ',', '|', 0xac, '\r', 'a', 0, 0xff}
	for n := 0; n <= 700; n++ {
		buf := make([]byte, n+64)
		for i := range buf {
			buf[i] = alphabet[r.Intn(len(alphabet))]
		}
		data := buf[:n]
		words := (n + 63) / 64
		for _, delim := range []byte{',', '|', 0xac, 0} {
			got, gotD := make([]uint64, words+1), make([]uint64, words+1)
			for i := range got {
				got[i], gotD[i] = r.Uint64(), r.Uint64()
			}
			want, wantD := make([]uint64, words), make([]uint64, words)
			guard, guardD := got[words], gotD[words]
			structuralIndex(data, delim, got[:words], gotD[:words])
			if got[words] != guard || gotD[words] != guardD {
				t.Fatalf("n %d delim %q: kernel wrote past word %d", n, delim, words)
			}
			byteIndex(data, delim, want, wantD)
			for i := range want {
				if got[i] != want[i] || gotD[i] != wantD[i] {
					t.Fatalf("n %d delim %q word %d: kernel %016x %016x, bytes %016x %016x", n, delim, i, got[i], gotD[i], want[i], wantD[i])
				}
			}
		}
	}
}
