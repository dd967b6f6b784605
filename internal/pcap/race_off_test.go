//go:build !race

package pcap

const raceEnabled = false
