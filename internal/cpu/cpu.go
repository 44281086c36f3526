// Package cpu reports the instruction-set extensions the vector kernels
// need. It reads the processor once, at start-up; the kernels' packages
// copy the answer into a package variable and branch on it, so there is
// no switch to set.
package cpu

// HasAVX2 reports that the CPU has AVX2 and POPCNT and that the operating
// system saves the YMM registers. It is false on every architecture but
// amd64.
var HasAVX2 = hasAVX2()
