// Package wire is the framed record stream spoken by the bulk store
// endpoints (/v1/store/batch-get and /v1/store/batch-put): many
// depstore records in one HTTP body, so a fleet warm start pays O(1)
// round trips instead of one per record.
//
// A stream is a fixed header, one frame per record, and a trailer:
//
//	header:  magic "FSB1" (4) | record count (u32 BE)
//	frame:   flag (u8: 1 present, 0 missing)
//	         | kind length (u8) | key length (u16 BE)
//	         | payload length (u32 BE, present frames only)
//	         | kind bytes | key bytes
//	         | payload bytes | sha256(payload) (32, present frames only)
//	trailer: magic "FSB$" (4)
//
// Missing frames exist so a batch-get response can answer every
// requested key positionally-independently: a key the store does not
// have comes back as an explicit miss, not as silence a truncated
// stream could fake.
//
// Every defect a lossy or byte-mangling transport can introduce maps
// to a typed refusal, never to a wrong record: a stream that ends
// before the declared count (or mid-frame) is ErrTruncated, and a
// frame whose payload fails its checksum — or whose lengths are
// structurally impossible — is ErrCorrupt. ReadAll validates the
// entire stream, trailer included, before returning anything, so a
// caller either admits every record of a batch or none; partial
// ingestion of a damaged stream is impossible by construction.
//
// Compression is deliberately not this package's concern: the HTTP
// layer negotiates gzip (Accept-Encoding / Content-Encoding) and
// wraps the stream, so the framing stays byte-identical whether or
// not the transport compresses.
package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// Stream magics. The header byte-for-byte identifies the protocol (a
// plain-record or HTML error body pointed at ReadAll fails on the
// first four bytes), and the trailer proves the stream ran to
// completion.
const (
	headerMagic  = "FSB1"
	trailerMagic = "FSB$"
)

// Limits every reader enforces. MaxRecords bounds a single batch;
// MaxPayload matches the store endpoints' single-record upload bound,
// so a healthy round trip never truncates.
const (
	MaxRecords = 1 << 20
	MaxPayload = 64 << 20
)

// initialRecords caps the record capacity ReadAll sizes from a
// stream's declared count, and readChunk the bytes readBody
// allocates ahead of what it has received: the declared sizes come
// from whoever sent the stream, so memory follows the bytes that
// actually arrive, not the claims.
const (
	initialRecords = 256
	readChunk      = 64 << 10
)

// ErrTruncated reports a stream that ended before its declared record
// count (or mid-frame): the transport delivered a prefix, not the
// batch.
var ErrTruncated = errors.New("wire: truncated batch stream")

// ErrCorrupt reports a structurally invalid stream: wrong magic, an
// impossible length, a checksum mismatch, or trailing garbage.
var ErrCorrupt = errors.New("wire: corrupt batch stream")

// Record is one record of a batch. Missing marks a batch-get answer
// for a key the store did not have (Payload is nil then). Kind and Key
// follow the depstore addressing scheme; this package does not
// re-validate them — the endpoints do, on both sides.
type Record struct {
	Kind    string
	Key     string
	Payload []byte
	Missing bool
}

// Write frames recs onto w: header, one frame per record, trailer.
// The writer is typically an HTTP response body, optionally behind a
// gzip.Writer installed by the negotiating layer.
func Write(w io.Writer, recs []Record) error {
	if len(recs) > MaxRecords {
		return fmt.Errorf("%w: %d records exceed the %d batch bound", ErrCorrupt, len(recs), MaxRecords)
	}
	var scratch [4]byte
	buf := bytes.NewBuffer(nil)
	buf.WriteString(headerMagic)
	binary.BigEndian.PutUint32(scratch[:], uint32(len(recs)))
	buf.Write(scratch[:])
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	for i := range recs {
		if err := writeFrame(w, &recs[i]); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, trailerMagic)
	return err
}

func writeFrame(w io.Writer, rec *Record) error {
	if len(rec.Kind) > 0xff || len(rec.Key) > 0xffff {
		return fmt.Errorf("%w: record reference too long (kind %d, key %d)", ErrCorrupt, len(rec.Kind), len(rec.Key))
	}
	if int64(len(rec.Payload)) > MaxPayload {
		return fmt.Errorf("%w: %d-byte payload exceeds the %d bound", ErrCorrupt, len(rec.Payload), MaxPayload)
	}
	// Frame head and reference strings in one write, payload and sum in
	// two more: three writes per frame keeps large payloads zero-copy.
	head := make([]byte, 0, 8+len(rec.Kind)+len(rec.Key))
	if rec.Missing {
		head = append(head, 0)
	} else {
		head = append(head, 1)
	}
	head = append(head, byte(len(rec.Kind)))
	head = binary.BigEndian.AppendUint16(head, uint16(len(rec.Key)))
	if !rec.Missing {
		head = binary.BigEndian.AppendUint32(head, uint32(len(rec.Payload)))
	}
	head = append(head, rec.Kind...)
	head = append(head, rec.Key...)
	if _, err := w.Write(head); err != nil {
		return err
	}
	if rec.Missing {
		return nil
	}
	if _, err := w.Write(rec.Payload); err != nil {
		return err
	}
	sum := sha256.Sum256(rec.Payload)
	_, err := w.Write(sum[:])
	return err
}

// ReadAll parses one complete stream from r, enforcing maxBytes as the
// cumulative payload bound (<=0 means MaxRecords*MaxPayload — i.e.
// only the per-record bounds), and refuses a payload that would cross
// it before reading a byte of that payload. It validates everything —
// header, every frame's checksum, the trailer, and that nothing
// follows it — before returning, so on any error the caller has zero
// records to admit: a truncated or corrupted batch can never poison a
// store.
func ReadAll(r io.Reader, maxBytes int64) ([]Record, error) {
	if maxBytes <= 0 {
		maxBytes = int64(MaxRecords) * MaxPayload
	}
	var head [8]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return nil, refuse(err)
	}
	if string(head[:4]) != headerMagic {
		return nil, fmt.Errorf("%w: bad header magic %q", ErrCorrupt, head[:4])
	}
	count := binary.BigEndian.Uint32(head[4:])
	if count > MaxRecords {
		return nil, fmt.Errorf("%w: %d records exceed the %d batch bound", ErrCorrupt, count, MaxRecords)
	}
	recs := make([]Record, 0, min(count, initialRecords))
	var total int64
	for i := uint32(0); i < count; i++ {
		rec, err := readFrame(r, maxBytes-total)
		if err != nil {
			return nil, err
		}
		total += int64(len(rec.Payload))
		recs = append(recs, rec)
	}
	var trailer [4]byte
	if _, err := io.ReadFull(r, trailer[:]); err != nil {
		return nil, refuse(err)
	}
	if string(trailer[:]) != trailerMagic {
		return nil, fmt.Errorf("%w: bad trailer magic %q", ErrCorrupt, trailer[:])
	}
	// Anything after the trailer is framing confusion, not slack.
	var one [1]byte
	if _, err := r.Read(one[:]); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing bytes after the stream trailer", ErrCorrupt)
	}
	return recs, nil
}

// readFrame reads one frame whose payload may use at most budget
// bytes, what is left of ReadAll's cumulative bound.
func readFrame(r io.Reader, budget int64) (Record, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		return Record{}, refuse(err)
	}
	flag := head[0]
	if flag > 1 {
		return Record{}, fmt.Errorf("%w: unknown frame flag %d", ErrCorrupt, flag)
	}
	kindLen := int(head[1])
	keyLen := int(binary.BigEndian.Uint16(head[2:]))
	if kindLen == 0 || keyLen == 0 {
		return Record{}, fmt.Errorf("%w: empty record reference", ErrCorrupt)
	}
	var payloadLen int64
	if flag == 1 {
		var pl [4]byte
		if _, err := io.ReadFull(r, pl[:]); err != nil {
			return Record{}, refuse(err)
		}
		payloadLen = int64(binary.BigEndian.Uint32(pl[:]))
		if payloadLen > MaxPayload {
			return Record{}, fmt.Errorf("%w: %d-byte payload exceeds the %d bound", ErrCorrupt, payloadLen, MaxPayload)
		}
		if payloadLen > budget {
			return Record{}, fmt.Errorf("%w: %d-byte payload exceeds the batch's remaining %d-byte payload bound", ErrCorrupt, payloadLen, budget)
		}
	}
	ref := make([]byte, kindLen+keyLen)
	if _, err := io.ReadFull(r, ref); err != nil {
		return Record{}, refuse(err)
	}
	rec := Record{Kind: string(ref[:kindLen]), Key: string(ref[kindLen:])}
	if flag == 0 {
		rec.Missing = true
		return rec, nil
	}
	body, err := readBody(r, int(payloadLen)+sha256.Size)
	if err != nil {
		return Record{}, refuse(err)
	}
	rec.Payload = body[:payloadLen:payloadLen]
	sum := sha256.Sum256(rec.Payload)
	if !bytes.Equal(sum[:], body[payloadLen:]) {
		return Record{}, fmt.Errorf("%w: payload checksum mismatch for %s/%s", ErrCorrupt, rec.Kind, rec.Key)
	}
	return rec, nil
}

// readBody reads a frame's n-byte payload-and-checksum. It allocates
// at most readChunk before the first byte arrives and doubles from
// there, so a declared length the stream never delivers costs memory
// in proportion to what did arrive.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, 0, min(n, readChunk))
	for len(buf) < n {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, min(len(buf), n-len(buf)))
		}
		m, err := io.ReadFull(r, buf[len(buf):min(cap(buf), n)])
		buf = buf[:len(buf)+m]
		if err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// refuse maps raw read errors onto the package's typed refusals: any
// EOF mid-structure is truncation, everything else passes through
// (gzip layers surface their own corruption errors, which the caller
// treats exactly like ErrCorrupt: no records admitted).
func refuse(err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: %v", ErrTruncated, err)
	}
	return err
}
