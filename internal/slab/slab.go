// Package slab carves small byte buffers out of large shared chunks,
// so a stream of buffers costs one allocation per chunk rather than
// one per buffer. The pcap reader carves packet bytes with it and the
// capture sampler carves payload copies.
package slab

// Size is the chunk size. A request larger than Size/4 gets a buffer
// of its own; since a chunk is only abandoned for a request that does
// not fit its tail, no chunk loses more than a quarter of itself.
const Size = 64 << 10

// Bytes is a bump allocator over the current chunk. The zero value is
// ready to use.
//
// Carved memory is never handed out twice, so each buffer stays valid
// for as long as its holder keeps it. A kept buffer keeps its whole
// chunk alive.
type Bytes struct {
	free []byte // unused tail of the current chunk
}

// Carve returns n zeroed bytes that no earlier Carve returned. The full
// slice expression caps the result at n, so an append by the holder
// cannot spill into the next buffer.
func (b *Bytes) Carve(n int) []byte {
	if n > len(b.free) {
		if n > Size/4 {
			return make([]byte, n)
		}
		b.free = make([]byte, Size)
	}
	buf := b.free[:n:n]
	b.free = b.free[n:]
	return buf
}
