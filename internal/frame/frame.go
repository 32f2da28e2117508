// Package frame is the one binary layer under the snapshot store's files
// and the batch wire's frames. Every frame starts with one integrity header:
//
//	magic (8) | u16 format version | 2 reserved | u64 payload length | CRC32-C (4)
//
// all little-endian, 24 bytes, then the payload. Seal writes it, Verify
// checks it; each caller brings its own magic, accepted version range and
// payload bound, and tags Verify's errors with its own sentinel
// (store.ErrCorrupt, query.ErrFrame).
//
// Both payloads — a snapshot's solved summary (internal/summary) and a
// batch of queries or answers (internal/query) — are built from the same
// primitives: unsigned varints, length-prefixed strings and the raw bits of
// float64s. Writer appends them; Reader reads them back from a verified
// payload, bounding every count by the bytes that remain and refusing
// trailing bytes, so a format changes in one place.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the length of the header in front of every payload.
const HeaderSize = 8 + 2 + 2 + 8 + 4

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Seal fills in the header of framed — HeaderSize reserved bytes followed
// by the payload, built in one buffer so sealing never copies — and returns
// the payload's checksum. The reserved bytes are zeroed. A payload above
// maxPayload is an error: no reader would accept the frame.
func Seal(framed []byte, magic string, version uint16, maxPayload uint64) (uint32, error) {
	payload := framed[HeaderSize:]
	if uint64(len(payload)) > maxPayload {
		return 0, fmt.Errorf("%d-byte payload exceeds the %d-byte frame bound", len(payload), maxPayload)
	}
	sum := crc32.Checksum(payload, crcTable)
	copy(framed[:8], magic)
	binary.LittleEndian.PutUint16(framed[8:10], version)
	framed[10], framed[11] = 0, 0
	binary.LittleEndian.PutUint64(framed[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(framed[20:24], sum)
	return sum, nil
}

// Verify reads exactly one frame from in — a file, a request body, or a
// bytes.Reader over a frame held in memory — and returns its payload, the
// format version it declares and the payload checksum. Every error means
// the bytes are not a sound frame: wrong magic, a version outside
// [minVersion, maxVersion], a length above maxPayload (checked before
// anything is allocated, so a lying length field cannot drive an absurd
// allocation), a payload shorter or longer than the header says, or a
// checksum mismatch.
func Verify(in io.Reader, magic string, minVersion, maxVersion uint16, maxPayload uint64) ([]byte, uint16, uint32, error) {
	var head [HeaderSize]byte
	if _, err := io.ReadFull(in, head[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("header truncated (%v)", err)
	}
	if string(head[:8]) != magic {
		return nil, 0, 0, fmt.Errorf("bad magic %q (want %q)", head[:8], magic)
	}
	version := binary.LittleEndian.Uint16(head[8:10])
	if version < minVersion || version > maxVersion {
		return nil, 0, 0, fmt.Errorf("format version %d, this build reads %d..%d", version, minVersion, maxVersion)
	}
	length := binary.LittleEndian.Uint64(head[12:20])
	if length > maxPayload {
		return nil, 0, 0, fmt.Errorf("payload length %d exceeds the %d-byte bound", length, maxPayload)
	}
	payload := make([]byte, length)
	if _, err := io.ReadFull(in, payload); err != nil {
		return nil, 0, 0, fmt.Errorf("payload truncated (%v)", err)
	}
	// Trailing bytes mean the length field and the frame disagree.
	var one [1]byte
	if n, _ := in.Read(one[:]); n != 0 {
		return nil, 0, 0, fmt.Errorf("%d-byte payload followed by trailing garbage", length)
	}
	want := binary.LittleEndian.Uint32(head[20:24])
	sum := crc32.Checksum(payload, crcTable)
	if sum != want {
		return nil, 0, 0, fmt.Errorf("checksum %08x, header says %08x", sum, want)
	}
	return payload, version, sum, nil
}
