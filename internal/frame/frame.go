// Package frame is the one binary layer under the snapshot store's files
// and the batch wire's frames. Every frame starts with one integrity header:
//
//	magic (8) | u16 format version | 2 reserved | u64 payload length | CRC32-C (4)
//
// all little-endian, 24 bytes, then the payload. Seal writes it; Check
// checks a frame in memory and Verify one read from a stream. Each caller
// brings its own magic, accepted version range and payload bound, and tags
// the errors with its own sentinel (store.ErrCorrupt, query.ErrFrame).
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

// Verify reads exactly one frame from in — a file or a request body — and
// returns its payload, the format version it declares and the payload
// checksum, as Check does for a frame held in memory. The header is read
// and checked first, so a lying length field cannot drive an absurd
// allocation; then the whole frame is read into one buffer and checked.
func Verify(in io.Reader, magic string, minVersion, maxVersion uint16, maxPayload uint64) ([]byte, uint16, uint32, error) {
	var head [HeaderSize]byte
	if _, err := io.ReadFull(in, head[:]); err != nil {
		return nil, 0, 0, fmt.Errorf("header truncated (%v)", err)
	}
	_, length, err := checkHeader(head[:], magic, minVersion, maxVersion, maxPayload)
	if err != nil {
		return nil, 0, 0, err
	}
	framed := make([]byte, HeaderSize+length)
	copy(framed, head[:])
	if _, err := io.ReadFull(in, framed[HeaderSize:]); err != nil {
		return nil, 0, 0, fmt.Errorf("payload truncated (%v)", err)
	}
	// Trailing bytes mean the length field and the frame disagree.
	var one [1]byte
	if n, _ := in.Read(one[:]); n != 0 {
		return nil, 0, 0, fmt.Errorf("%d-byte payload followed by trailing garbage", length)
	}
	return Check(framed, magic, minVersion, maxVersion, maxPayload)
}

// Check verifies one frame held in memory and returns its payload — a
// subslice of framed, never a copy — the format version it declares and the
// payload checksum. Every error means the bytes are not a sound frame: wrong
// magic, a version outside [minVersion, maxVersion], a length above
// maxPayload, a payload shorter or longer than the header says, or a
// checksum mismatch.
func Check(framed []byte, magic string, minVersion, maxVersion uint16, maxPayload uint64) ([]byte, uint16, uint32, error) {
	if len(framed) < HeaderSize {
		return nil, 0, 0, fmt.Errorf("header truncated (%d bytes)", len(framed))
	}
	version, length, err := checkHeader(framed, magic, minVersion, maxVersion, maxPayload)
	if err != nil {
		return nil, 0, 0, err
	}
	payload := framed[HeaderSize:]
	if uint64(len(payload)) < length {
		return nil, 0, 0, fmt.Errorf("payload truncated (%d of %d bytes)", len(payload), length)
	}
	if uint64(len(payload)) > length {
		return nil, 0, 0, fmt.Errorf("%d-byte payload followed by trailing garbage", length)
	}
	want := binary.LittleEndian.Uint32(framed[20:24])
	sum := crc32.Checksum(payload, crcTable)
	if sum != want {
		return nil, 0, 0, fmt.Errorf("checksum %08x, header says %08x", sum, want)
	}
	return payload, version, sum, nil
}

// checkHeader checks the magic, format version and length of a header and
// returns the version and the payload length it declares.
func checkHeader(head []byte, magic string, minVersion, maxVersion uint16, maxPayload uint64) (uint16, uint64, error) {
	if string(head[:8]) != magic {
		return 0, 0, fmt.Errorf("bad magic %q (want %q)", head[:8], magic)
	}
	version := binary.LittleEndian.Uint16(head[8:10])
	if version < minVersion || version > maxVersion {
		return 0, 0, fmt.Errorf("format version %d, this build reads %d..%d", version, minVersion, maxVersion)
	}
	length := binary.LittleEndian.Uint64(head[12:20])
	if length > maxPayload {
		return 0, 0, fmt.Errorf("payload length %d exceeds the %d-byte bound", length, maxPayload)
	}
	return version, length, nil
}
