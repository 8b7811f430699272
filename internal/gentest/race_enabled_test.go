//go:build race

package gentest

// raceDetectorEnabled reports whether this test binary was built with
// -race; the allocation gate skips then, since the race runtime makes
// sync.Pool drop some Puts and the gate would count the refills.
const raceDetectorEnabled = true
