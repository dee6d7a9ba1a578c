//go:build race

package main

// raceDetector reports that the test binary was built with -race.
const raceDetector = true
