//go:build race

package capture

// raceEnabled reports a -race build, where allocation counts stop
// being meaningful.
const raceEnabled = true
