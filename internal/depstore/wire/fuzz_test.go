package wire

import (
	"bytes"
	"testing"
)

// FuzzWireReadAll drives the batch decoder with arbitrary bytes. It
// must never panic; a stream it accepts must be exactly the stream
// Write frames from the records it returned, so no two streams decode
// to the same batch and no byte is ignored; and a stream it refuses
// must yield no records.
func FuzzWireReadAll(f *testing.F) {
	frame := func(recs ...Record) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, recs); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}
	// Seeds stay small: the fuzzer minimizes each new input it finds,
	// at a cost that grows with the square of the input's length.
	full := frame(
		Record{Kind: "taint", Key: "aabbccdd", Payload: []byte(`{"v":1}`)},
		Record{Kind: "scenario", Key: "deadbeef", Payload: []byte{}},
		Record{Kind: "summaries", Key: "0123456789abcdef", Missing: true},
	)
	f.Add(full)
	f.Add(frame())                                                                         // empty batch
	f.Add(frame(Record{Kind: "taint", Key: "aabbccdd", Missing: true}))                    // one missing frame
	f.Add(frame(Record{Kind: "scenario", Key: "deadbeef", Payload: []byte{}}))             // one empty payload
	f.Add(frame(Record{Kind: "t", Key: "k", Missing: true}, Record{Kind: "t", Key: "k"}))  // missing, then empty
	f.Add(full[:len(full)-1])                                                              // truncated trailer
	f.Add(append(append([]byte{}, full...), 0))                                            // trailing byte
	f.Add([]byte("FSB1\x00\x10\x00\x00"))                                                  // huge declared count
	f.Add([]byte("FSB1\x00\x00\x00\x01" + "\x01\x01\x00\x01" + "\x04\x00\x00\x00" + "tk")) // huge declared payload

	f.Fuzz(func(t *testing.T, data []byte) {
		recs, err := ReadAll(bytes.NewReader(data), 0)
		if err != nil {
			if recs != nil {
				t.Fatalf("refused stream (%v) returned %d records", err, len(recs))
			}
			return
		}
		var again bytes.Buffer
		if err := Write(&again, recs); err != nil {
			t.Fatalf("accepted records do not re-frame: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data) {
			t.Fatalf("accepted stream re-frames differently:\n in  %x\n out %x", data, again.Bytes())
		}
	})
}
