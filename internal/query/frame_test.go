package query

import (
	"hash/crc32"

	"repro/internal/frame"
)

// batchCRCTable lets tests re-checksum a frame they corrupted by hand; the
// codec itself seals and verifies through internal/frame.
var batchCRCTable = crc32.MakeTable(crc32.Castagnoli)

// batchHeaderSize is the frame header in front of every payload, named
// where a test's own frame variable shadows the package.
const batchHeaderSize = frame.HeaderSize
