//go:build race

package main

// raceEnabled stretches the smoke runs: under the race detector the
// workloads run several times slower.
const raceEnabled = true
