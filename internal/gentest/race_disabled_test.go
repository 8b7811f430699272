//go:build !race

package gentest

const raceDetectorEnabled = false
