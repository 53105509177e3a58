package wire

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"testing"
)

func TestFrameRoundTrip(t *testing.T) {
	for _, f := range []Frame{
		{Op: OpPing},
		{Op: OpPushAdd, Flags: FlagMutates, Client: 9, ReqID: 42, AckedTo: 17, Payload: []byte("hello")},
		{Op: OpFused, Flags: FlagMutates, Client: 1<<64 - 1, ReqID: 1 << 60, AckedTo: 1<<60 - 1, Payload: make([]byte, 4096)},
	} {
		var buf bytes.Buffer
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Op != f.Op || got.Flags != f.Flags || got.Client != f.Client || got.ReqID != f.ReqID || got.AckedTo != f.AckedTo {
			t.Fatalf("header mismatch: %+v vs %+v", got, f)
		}
		if !bytes.Equal(got.Payload, f.Payload) {
			t.Fatal("payload mismatch")
		}
	}
}

func TestFrameRejectsBadMagic(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Op: OpPing}); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[0] ^= 0xFF
	if _, err := ReadFrame(bytes.NewReader(b)); err == nil {
		t.Fatal("corrupted magic accepted")
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteResponse(&buf, []byte{1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResponse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("payload = %v", got)
	}

	buf.Reset()
	if err := WriteResponse(&buf, nil, errors.New("boom")); err != nil {
		t.Fatal(err)
	}
	_, err = ReadResponse(&buf)
	var sErr *ServerError
	if !errors.As(err, &sErr) || sErr.Msg != "boom" {
		t.Fatalf("err = %v, want ServerError(boom)", err)
	}
}

func TestPayloadCodecs(t *testing.T) {
	{
		mat, rows, lo, hi, err := decodeCreateShard(encodeCreateShard(3, 2, 100, 250))
		if err != nil || mat != 3 || rows != 2 || lo != 100 || hi != 250 {
			t.Fatalf("create shard: %v %v %v %v %v", mat, rows, lo, hi, err)
		}
	}
	{
		cols := []int{1, 5, 9}
		mat, row, gotCols, err := decodePullSparseReq(encodePullSparseReq(7, 1, cols))
		if err != nil || mat != 7 || row != 1 || !reflect.DeepEqual(gotCols, cols) {
			t.Fatalf("pull sparse req: %v %v %v %v", mat, row, gotCols, err)
		}
	}
	{
		vals := []float64{1.5, -2.25, math.Pi}
		got, err := decodeVals(encodeVals(vals))
		if err != nil || !reflect.DeepEqual(got, vals) {
			t.Fatalf("vals: %v %v", got, err)
		}
	}
	{
		cols, vals := []int{2, 4}, []float64{0.5, -0.5}
		mat, row, gc, gv, err := decodePushAdd(encodePushAdd(1, 1, cols, vals))
		if err != nil || mat != 1 || row != 1 || !reflect.DeepEqual(gc, cols) || !reflect.DeepEqual(gv, vals) {
			t.Fatalf("push add: %v %v %v %v %v", mat, row, gc, gv, err)
		}
	}
	{
		ops := []FusedOp{
			{Kind: FAxpy, Dst: 0, Src: 1, Scale: -0.01},
			{Kind: FZero, Row: 1},
			{Kind: FScale, Row: 0, Scale: 0.99},
		}
		mat, got, err := decodeFused(encodeFused(9, ops))
		if err != nil || mat != 9 || !reflect.DeepEqual(got, ops) {
			t.Fatalf("fused: %v %v %v", mat, got, err)
		}
	}
	{
		lo, vals, err := decodePullRangeResp(encodePullRangeResp(40, []float64{1, 2}))
		if err != nil || lo != 40 || !reflect.DeepEqual(vals, []float64{1, 2}) {
			t.Fatalf("pull range resp: %v %v %v", lo, vals, err)
		}
	}
	{
		in := ServerStats{Requests: 10, DedupHits: 2, BytesIn: 300, BytesOut: 400}
		got, err := decodeStatsResp(encodeStatsResp(in))
		if err != nil || got != in {
			t.Fatalf("stats: %+v %v", got, err)
		}
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	full := encodePushAdd(1, 0, []int{1, 2, 3}, []float64{1, 2, 3})
	for n := 0; n < len(full); n++ {
		if _, _, _, _, err := decodePushAdd(full[:n]); err == nil {
			t.Fatalf("truncated payload of %d bytes accepted", n)
		}
	}
	// Trailing garbage must be rejected too — a length-confused encoder
	// would otherwise silently round-trip.
	if _, _, _, _, err := decodePushAdd(append(append([]byte{}, full...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
}

func TestDecoderRejectsHugeVector(t *testing.T) {
	var e enc
	e.u32(1)          // mat
	e.u32(0)          // row
	e.u32(0xFFFFFFFF) // claimed column count far beyond the frame cap
	if _, _, _, err := decodePullSparseReq(e.b); err == nil {
		t.Fatal("absurd length prefix accepted")
	}
}
