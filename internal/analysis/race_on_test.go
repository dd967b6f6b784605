//go:build race

package analysis

// raceEnabled reports a -race build, where allocation counts stop
// being meaningful.
const raceEnabled = true
