package wal

import (
	"errors"
	"fmt"
)

// ErrShipGap reports a shipped segment whose first byte lies past the
// receiving log's end: an earlier segment was lost or delayed. The
// shipper recovers by resuming from the applier's watermark.
var ErrShipGap = errors.New("wal: shipped segment starts past the log end")

// Segment is one shipped chunk of a log's stable prefix: raw frame
// bytes starting at a known LSN. Because an LSN is a byte offset,
// shipping is pure byte transport — the receiving log validates frames
// on ingest.
type Segment struct {
	// From is the LSN of the segment's first byte.
	From LSN
	// Data holds record-frame bytes starting at From. The last frame
	// may be cut short by the segment boundary (or a torn transfer);
	// the receiver holds incomplete bytes back.
	Data []byte
}

// End returns the LSN one past the segment's last byte.
func (s Segment) End() LSN { return s.From + LSN(len(s.Data)) }

// ReadStable copies up to limit bytes of the stable log starting at from
// (limit <= 0 means no bound). When a backend is attached the bytes come
// from the log device — the shipper tails what is actually durable —
// otherwise from the in-memory segments. A nil slice means from is at
// (or past) the stable boundary: the reader has caught up. A from below
// StartLSN fails with ErrReleased.
func (l *Log) ReadStable(from LSN, limit int) ([]byte, error) {
	from = max(from, FirstLSN())
	l.mu.Lock()
	defer l.mu.Unlock()
	if from >= l.flushedLSN {
		return nil, nil
	}
	if _, err := l.segIndex(from); err != nil {
		return nil, err
	}
	to := l.flushedLSN
	if limit > 0 {
		to = min(to, from+LSN(limit))
	}
	out := make([]byte, 0, to-from)
	for _, c := range l.chunks(from, to) {
		if l.backend == nil {
			out = append(out, c.data...)
			continue
		}
		// Under mu so CloseBackend (a crash) cannot close the files out
		// from underneath the read; the stable prefix is fully persisted
		// (Flush syncs before advancing flushedLSN), so the device read
		// cannot see a partial frame the memory path would not.
		n := len(out)
		out = out[:n+len(c.data)]
		if _, err := l.backend.ReadAt(c.seg, c.base, out[n:]); err != nil {
			return nil, fmt.Errorf("wal: reading stable log at %v: %w", c.base, err)
		}
	}
	return out, nil
}

// maxShipFrameBody bounds the body size a held-back partial frame may
// claim. Real frames are orders of magnitude smaller; a claim past the
// bound is channel garbage (TearTail's synthetic frame claims 16 MiB),
// rejected immediately instead of buffered forever waiting for bytes
// that will never arrive.
const maxShipFrameBody = 4 << 20

// AppendStable ingests a shipped segment of another log's stable
// prefix, returning the ingest watermark — the LSN the next segment
// should start at. It is idempotent and self-healing, so the shipping
// channel may duplicate, re-send, reorder-within-resend or tear
// segments:
//
//   - bytes the log already ingested (from < watermark) are skipped,
//     so a duplicated or overlapping segment is a no-op for the
//     overlap;
//   - a segment starting past the watermark returns ErrShipGap with
//     the log untouched, so a delayed or lost segment cannot punch a
//     hole — the shipper resumes from the returned watermark;
//   - a trailing frame cut short by the segment boundary or a torn
//     transfer (the codec's ErrTruncated, the same screen OpenLogDir
//     applies to a torn segment file) is buffered but not counted stable:
//     FlushedLSN stops at the last complete frame until the rest of
//     the frame arrives;
//   - a frame that fails to decode, or a partial frame claiming an
//     absurd body length (torn-tail garbage), is rejected with an
//     error after trimming back to the last complete frame; the
//     shipper re-sends from the returned watermark.
//
// Complete ingested frames are immediately stable (they were stable on
// the primary) and, with a backend attached, persisted and synced
// before FlushedLSN advances; buffered partial bytes stay off the
// device. Callers must serialize AppendStable with the log's other
// writers; a standby log has exactly one applier and must not Append
// or Flush locally until promotion drops any partial tail
// (DropPartialTail).
func (l *Log) AppendStable(from LSN, data []byte) (LSN, error) {
	l.flushMu.Lock()
	defer l.flushMu.Unlock()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.frozen {
		return l.flushedLSN, fmt.Errorf("wal: shipped segment into frozen log")
	}
	if from < FirstLSN() {
		// LSN space starts at FirstLSN on both sides; nothing below it
		// is part of the record stream. Clamp a from-zero ship to it.
		if len(data) >= int(FirstLSN()-from) {
			data = data[FirstLSN()-from:]
		} else {
			data = nil
		}
		from = FirstLSN()
	}
	base := l.tail().end()
	if base != l.flushedLSN {
		return l.flushedLSN, fmt.Errorf("wal: log has a volatile tail (%v past stable %v); cannot ingest shipped segments", base, l.flushedLSN)
	}
	ingest := base + LSN(len(l.held))
	if from > ingest {
		return ingest, fmt.Errorf("%w: segment at %v, log ends at %v", ErrShipGap, from, ingest)
	}
	skip := int(ingest - from)
	if skip >= len(data) {
		return ingest, nil // wholly duplicate: idempotent no-op
	}
	// src is every byte past the last complete frame, its first at LSN
	// base: the new bytes, behind whatever an earlier segment left held.
	src := data[skip:]
	if len(l.held) > 0 {
		l.held = append(l.held, src...)
		src = l.held
	}

	// Frame walk: exactly OpenLogDir's restart screen, applied per
	// shipped segment instead of per file. Each complete frame moves to
	// the chain, so no frame ever straddles two log segments.
	off := 0
	var walkErr error
	for off < len(src) {
		at := base + LSN(off)
		rec, next, err := decodeFrame(src, base, at)
		if err == nil {
			l.appendFrame(src[off : next-base])
			l.recCount++
			l.stableRecs++
			l.appendCount[rec.Type()]++
			off = int(next - base)
			continue
		}
		if errors.Is(err, ErrTruncated) && saneFrameClaim(src[off:]) {
			break // incomplete trailing frame: hold it, await the rest
		}
		src = src[:off]
		walkErr = fmt.Errorf("wal: corrupt shipped frame at %v: %w", at, err)
		break
	}
	l.held = append(l.held[:0], src[off:]...)
	l.flushedLSN = l.tail().end()
	if err := l.persist(l.flushedLSN); err != nil {
		return l.flushedLSN, fmt.Errorf("wal: persisting shipped segment: %w", err)
	}
	return l.flushedLSN + LSN(len(l.held)), walkErr
}

// saneFrameClaim reports whether rest could be the prefix of a real
// frame: either cut off inside its header, so there is no body-length
// claim to judge yet, or claiming a body within maxShipFrameBody.
func saneFrameClaim(rest []byte) bool {
	_, body, err := frameSpan(rest)
	if err != nil {
		return errors.Is(err, ErrTruncated)
	}
	return body <= maxShipFrameBody
}

// DropPartialTail discards shipped bytes held past the last complete
// frame — promotion's equivalent of recovery's torn-tail trim. A
// promoted standby calls it before its first local append; the partial
// frame's content is still on the dead primary's log, exactly like any
// torn tail, and is lost with it.
func (l *Log) DropPartialTail() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.held = nil
}

// ShipReader tails a log's stable prefix in segment-sized batches — the
// primary-side half of log shipping. The log keeps appending while the
// reader trails it, and reading remains valid after the primary freezes
// (a crash), which is how a standby drains the final stable bytes
// before promotion.
//
// The reader owns a retention hold on the log: Release never drops a
// byte the applier has not acknowledged. The hold is not the read
// cursor — Resume moves the cursor backwards when the channel lost
// bytes already read — it advances only through Ack, and Close gives it
// up.
type ShipReader struct {
	log  *Log
	next LSN
	hold *hold
}

// NewShipReader returns a reader positioned at from (clamped to
// FirstLSN; use the applier's watermark to resume an interrupted ship),
// holding the log from there on.
func (l *Log) NewShipReader(from LSN) *ShipReader {
	from = max(from, FirstLSN())
	return &ShipReader{log: l, next: from, hold: l.addHold(from)}
}

// Next reads the next segment of at most maxBytes stable bytes
// (maxBytes <= 0 means everything available). ok=false means the reader
// has caught up with the stable boundary; more may become available
// after the next log force.
func (r *ShipReader) Next(maxBytes int) (Segment, bool, error) {
	data, err := r.log.ReadStable(r.next, maxBytes)
	if err != nil {
		return Segment{}, false, err
	}
	if len(data) == 0 {
		return Segment{}, false, nil
	}
	seg := Segment{From: r.next, Data: data}
	r.next = seg.End()
	return seg, true, nil
}

// Watermark returns the LSN the next segment will start at.
func (r *ShipReader) Watermark() LSN { return r.next }

// Resume repositions the reader — after the applier held back a torn
// tail or reported a gap, the shipper resumes from the applier's
// watermark so the channel self-heals.
func (r *ShipReader) Resume(from LSN) {
	r.next = max(from, FirstLSN())
}

// Ack tells the log its applier has durably ingested everything below
// lsn (the standby log's FlushedLSN): the hold advances to it, never
// backwards.
func (r *ShipReader) Ack(lsn LSN) { r.log.moveHold(r.hold, lsn) }

// Close gives up the reader's hold; the log may release what the
// applier never acknowledged. The reader must not be used afterwards.
func (r *ShipReader) Close() { r.log.dropHold(r.hold) }
