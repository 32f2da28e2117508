package query

import "hash/crc32"

// batchCRCTable lets tests re-checksum a frame they corrupted by hand; the
// codec itself seals and verifies through internal/frame.
var batchCRCTable = crc32.MakeTable(crc32.Castagnoli)
