//go:build race

package loader

// raceEnabled reports a -race build. Its instrumentation turns off the
// compiler's allocation-free form of append(s, make([]T, n)...), which
// slices.Grow relies on, so heap-byte bounds do not hold under it.
const raceEnabled = true
