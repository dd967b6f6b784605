//go:build race

package pcap

// raceEnabled reports a -race build, where allocation counts stop
// being meaningful.
const raceEnabled = true
