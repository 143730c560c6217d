package sim

import (
	"bytes"
	"testing"
)

func sampleRun() MethodRun {
	return MethodRun{
		Signature: "scimark/fft/FFT.bitreverse/1",
		BP1: Result{
			Config: "Compact2", Signature: "scimark/fft/FFT.bitreverse/1",
			Policy: BP1, Fired: 1234, Distinct: 40, Static: 44,
			MeshCycles: 5678, ParallelCycles: 90, BusyCycles: 3000,
			MaxNode: 44,
		},
		BP2: Result{
			Config: "Compact2", Signature: "scimark/fft/FFT.bitreverse/1",
			Policy: BP2, Fired: 1200, Distinct: 41, Static: 44,
			MeshCycles: 5600, ParallelCycles: 85, BusyCycles: 2900,
			MaxNode: 44, TimedOut: true,
		},
	}
}

func TestMethodRunCodecRoundTrip(t *testing.T) {
	want := sampleRun()
	data, err := want.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got MethodRun
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got != want {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestMethodRunCodecStable(t *testing.T) {
	a, _ := sampleRun().MarshalBinary()
	b, _ := sampleRun().MarshalBinary()
	if !bytes.Equal(a, b) {
		t.Fatalf("equal runs marshalled to different bytes")
	}
	zero, _ := (MethodRun{}).MarshalBinary()
	if bytes.Equal(a, zero) {
		t.Fatalf("distinct runs marshalled to equal bytes")
	}
}

func TestMethodRunCodecRejectsGarbage(t *testing.T) {
	data, _ := sampleRun().MarshalBinary()
	var mr MethodRun
	if err := mr.UnmarshalBinary(data[:len(data)-3]); err == nil {
		t.Fatalf("truncated buffer decoded without error")
	}
	if err := mr.UnmarshalBinary(append(append([]byte{}, data...), 0xAB)); err == nil {
		t.Fatalf("trailing bytes decoded without error")
	}
	bad := append([]byte{}, data...)
	bad[0] = 99 // wrong codec version
	if err := mr.UnmarshalBinary(bad); err == nil {
		t.Fatalf("wrong version decoded without error")
	}
	// Bytes MarshalBinary never writes: an overlong uvarint (a zero
	// run's empty-signature length as 0x80 0x00) and a TimedOut byte of 2.
	zero, _ := (MethodRun{}).MarshalBinary()
	overlong := append([]byte{zero[0], 0x80, 0x00}, zero[2:]...)
	if err := mr.UnmarshalBinary(overlong); err == nil {
		t.Fatalf("overlong uvarint decoded without error")
	}
	badBool := append([]byte{}, data...)
	badBool[len(badBool)-1] = 2
	if err := mr.UnmarshalBinary(badBool); err == nil {
		t.Fatalf("TimedOut byte 2 decoded without error")
	}
}

// FuzzMethodRunUnmarshal: no input panics the decoder, and any input it
// accepts re-marshals to exactly the same bytes. Dispatch peers answer in
// this codec, so it parses bytes from the network.
func FuzzMethodRunUnmarshal(f *testing.F) {
	for _, mr := range []MethodRun{sampleRun(), {}} {
		data, _ := mr.MarshalBinary()
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var mr MethodRun
		if mr.UnmarshalBinary(data) != nil {
			return
		}
		again, err := mr.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(again, data) {
			t.Fatalf("accepted %x but it re-marshals to %x", data, again)
		}
	})
}
