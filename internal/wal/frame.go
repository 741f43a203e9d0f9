// Batch framing for the durable image.
//
// The journal's on-"disk" layout in every durability mode: a sequence of
// self-delimiting batch frames, one per flush — a single-record frame
// per append in sync mode, one frame per coalesced batch from the
// writer. A frame is
//
//	uvarint(len(body)) uvarint(crc32(body)) body
//
// where body is uvarint(recordCount) followed by the records in the
// per-record encoding shared with Marshal (appendRecord). The length
// prefix makes a torn tail detectable — the image ends before the body
// does — and the checksum guards complete frames against in-place
// corruption. Durability is therefore batch-atomic: a crash exposes
// exactly the record prefix covered by the complete frames, never half
// a batch.
//
// A record's Node is written as its distance from the previous
// record's Node, and the chain restarts at 0 in every frame body, so a
// frame decodes without its predecessors: the first record of a frame
// carries its absolute Node, the rest a small delta. Sync mode's
// one-record frames are all first records.

package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// appendFrame appends to buf the batch frame whose body is body, an
// appendRecords encoding.
func appendFrame(buf, body []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(body)))
	buf = binary.AppendUvarint(buf, uint64(crc32.ChecksumIEEE(body)))
	return append(buf, body...)
}

// BatchInfo describes one decoded batch frame of a durable image.
type BatchInfo struct {
	// Records is the number of records in this batch.
	Records int
	// End is the cumulative record count at this batch's boundary:
	// records[:End] is the journal prefix the image guarantees durable
	// once this frame is complete.
	End int
	// EndOff is the byte offset just past this frame in the durable
	// image — the positions a torn write can truncate to without
	// losing this batch.
	EndOff int
}

// UnmarshalDurable decodes a durable image (DurableBytes) into a log
// plus its batch boundaries. A truncated final frame — the torn write
// of a crash mid-flush — is tolerated: decoding stops at the last
// complete frame, which is exactly the prefix the crash model
// guarantees durable. Corruption *inside* a complete frame (checksum
// mismatch, malformed record, trailing bytes) is an error, not a torn
// tail.
func UnmarshalDurable(b []byte) (*Log, []BatchInfo, error) {
	l := NewLog()
	var batches []BatchInfo
	p := 0
	for p < len(b) {
		blen, k := binary.Uvarint(b[p:])
		if k <= 0 {
			break // torn frame header
		}
		crc, k2 := binary.Uvarint(b[p+k:])
		if k2 <= 0 {
			break // torn frame header
		}
		body0 := p + k + k2
		// Compare in uint64 space: a huge or garbage length must not
		// overflow on its way to the bounds check; an overlong frame is
		// indistinguishable from a torn one and ends the decode.
		if blen > uint64(len(b)-body0) {
			break // torn frame body
		}
		body := b[body0 : body0+int(blen)]
		if crc > math.MaxUint32 || uint32(crc) != crc32.ChecksumIEEE(body) {
			return nil, nil, fmt.Errorf("wal: batch %d checksum mismatch", len(batches))
		}
		n, k3 := binary.Uvarint(body)
		if k3 <= 0 {
			return nil, nil, fmt.Errorf("wal: batch %d: bad record count", len(batches))
		}
		// Same bound as Unmarshal: every record costs at least 5 bytes.
		if n > uint64(len(body)-k3)/5+1 {
			return nil, nil, fmt.Errorf("wal: batch %d: record count %d exceeds body size %d", len(batches), n, len(body))
		}
		q := k3
		prev := uint64(0)
		for i := uint64(0); i < n; i++ {
			r, nq, err := decodeRecord(body, q, i, prev)
			if err != nil {
				return nil, nil, fmt.Errorf("wal: batch %d: %w", len(batches), err)
			}
			q, prev = nq, r.Node
			l.recs = append(l.recs, r)
		}
		if q != len(body) {
			return nil, nil, fmt.Errorf("wal: batch %d: %d trailing bytes", len(batches), len(body)-q)
		}
		p = body0 + int(blen)
		batches = append(batches, BatchInfo{Records: int(n), End: len(l.recs), EndOff: p})
	}
	// The decoded prefix is the returned log's own durable image, so a
	// recovered log round-trips.
	l.durable = append([]byte(nil), b[:p]...)
	l.durableRecs = len(l.recs)
	l.flushCount = uint64(len(batches))
	return l, batches, nil
}
