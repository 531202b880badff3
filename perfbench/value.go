package main

import (
	"encoding/binary"
	"hash/crc32"
)

// Every value the benchmark writes is self-describing, so a read can be
// checked without a reference copy:
//
//	[0:8)    key id       (little endian)
//	[8:16)   write sequence number
//	[16:n-4) payload derived from (key id, sequence)
//	[n-4:n)  CRC-32C of bytes [0:n-4)
//
// A read that returns another key's bytes fails the key id, a value
// stitched from two writes fails the CRC, and a truncated or padded one
// fails the length.
const (
	valueHeader  = 16
	valueTrailer = 4
	keyLen       = 16
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// keyOf formats a key id as a 16-byte key: 'k' and 15 decimal digits.
func keyOf(id uint64) string {
	b := [keyLen]byte{'k', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0', '0'}
	for i := keyLen - 1; i > 0 && id > 0; i-- {
		b[i] = byte('0' + id%10)
		id /= 10
	}
	return string(b[:])
}

// fillValue writes the value for (id, seq) into dst, whose length is the
// value size (at least valueHeader+valueTrailer).
func fillValue(dst []byte, id, seq uint64) {
	binary.LittleEndian.PutUint64(dst[0:8], id)
	binary.LittleEndian.PutUint64(dst[8:16], seq)
	body := dst[valueHeader : len(dst)-valueTrailer]
	w := id*0x9E3779B97F4A7C15 ^ seq*0xC2B2AE3D27D4EB4F
	var word [8]byte
	binary.LittleEndian.PutUint64(word[:], w)
	for i := 0; i < len(body); i += 8 {
		copy(body[i:], word[:])
	}
	binary.LittleEndian.PutUint32(dst[len(dst)-valueTrailer:], crc32.Checksum(dst[:len(dst)-valueTrailer], castagnoli))
}

func newValue(size int, id, seq uint64) []byte {
	v := make([]byte, size)
	fillValue(v, id, seq)
	return v
}

// verdict classifies a value read back for a key.
type verdict uint8

const (
	valueOK verdict = iota
	valueWrongLen
	valueWrongKey
	valueTorn
)

func checkValue(v []byte, id uint64, size int) verdict {
	if len(v) != size {
		return valueWrongLen
	}
	if binary.LittleEndian.Uint64(v[0:8]) != id {
		return valueWrongKey
	}
	if crc32.Checksum(v[:size-valueTrailer], castagnoli) != binary.LittleEndian.Uint32(v[size-valueTrailer:]) {
		return valueTorn
	}
	return valueOK
}

// tally counts operations and their outcomes for one worker; tallies are
// summed when the phase ends.
type tally struct {
	gets, hits, misses uint64
	sets, deletes      uint64
	userBytesSet       uint64 // key + value bytes of every SET
	opErrors           uint64 // calls that returned an error
	wrongLen           uint64
	wrongKey           uint64
	torn               uint64
}

func (t *tally) add(o *tally) {
	t.gets += o.gets
	t.hits += o.hits
	t.misses += o.misses
	t.sets += o.sets
	t.deletes += o.deletes
	t.userBytesSet += o.userBytesSet
	t.opErrors += o.opErrors
	t.wrongLen += o.wrongLen
	t.wrongKey += o.wrongKey
	t.torn += o.torn
}

// hit records a GET that returned v for key id.
func (t *tally) hit(v []byte, id uint64, size int) {
	t.gets++
	t.hits++
	switch checkValue(v, id, size) {
	case valueWrongLen:
		t.wrongLen++
	case valueWrongKey:
		t.wrongKey++
	case valueTorn:
		t.torn++
	}
}

func (t *tally) attempted() uint64 { return t.gets + t.sets + t.deletes }

// failed counts operations that errored or returned a wrong value.
func (t *tally) failed() uint64 { return t.opErrors + t.wrongLen + t.wrongKey + t.torn }
