//go:build race

package server

// raceEnabled reports whether this test binary was built with the race
// detector, whose runtime (deliberately lossy sync.Pool, instrumented
// channel ops) allocates on paths that are allocation-free in normal
// builds.
const raceEnabled = true
