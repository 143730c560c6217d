package sim

import (
	"encoding/binary"
	"fmt"
)

// EngineVersion identifies the simulation engine's observable behaviour:
// any change that can alter a Result (latency tables, clocking rules,
// branch methodology, codec layout) must bump it so persisted MethodRun
// records from older engines are treated as misses, never replayed.
const EngineVersion = 1

// codecVersion is the serialization layout version of MarshalBinary.
const codecVersion = 1

// MarshalBinary renders the MethodRun in a stable, self-describing byte
// layout independent of Go struct layout or JSON field ordering:
//
//	version byte (codecVersion)
//	Signature        — uvarint length + bytes
//	BP1, BP2         — each Result as:
//	    Config       — uvarint length + bytes
//	    Signature    — uvarint length + bytes
//	    Policy       — one byte
//	    Fired, Distinct, Static, MeshCycles, ParallelCycles,
//	    BusyCycles, MaxNode — uvarint each
//	    TimedOut     — one byte (0/1)
//
// Two MethodRuns marshal to equal bytes iff they are equal, so persistent
// stores can both key and verify on the encoding.
func (mr MethodRun) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 64+len(mr.Signature))
	buf = append(buf, codecVersion)
	buf = appendString(buf, mr.Signature)
	buf = appendResult(buf, mr.BP1)
	buf = appendResult(buf, mr.BP2)
	return buf, nil
}

// UnmarshalBinary decodes data produced by MarshalBinary. It accepts
// only the bytes MarshalBinary writes — canonical uvarints, bools as 0 or
// 1, no trailing bytes — so any accepted input re-marshals to itself.
func (mr *MethodRun) UnmarshalBinary(data []byte) error {
	d := &decoder{buf: data}
	if v := d.byte(); v != codecVersion {
		return fmt.Errorf("sim: methodrun codec version %d, want %d", v, codecVersion)
	}
	out := MethodRun{Signature: d.string()}
	out.BP1 = d.result()
	out.BP2 = d.result()
	if d.err != nil {
		return fmt.Errorf("sim: decoding methodrun: %w", d.err)
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("sim: decoding methodrun: %d trailing bytes", len(d.buf)-d.off)
	}
	*mr = out
	return nil
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBool(buf []byte, b bool) []byte {
	if b {
		return append(buf, 1)
	}
	return append(buf, 0)
}

func appendResult(buf []byte, r Result) []byte {
	buf = appendString(buf, r.Config)
	buf = appendString(buf, r.Signature)
	buf = append(buf, byte(r.Policy))
	for _, n := range [...]int{
		r.Fired, r.Distinct, r.Static, r.MeshCycles,
		r.ParallelCycles, r.BusyCycles, r.MaxNode,
	} {
		buf = binary.AppendUvarint(buf, uint64(n))
	}
	return appendBool(buf, r.TimedOut)
}

// decoder walks the buffer, latching the first error; subsequent reads
// return zero values so call sites stay linear.
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(msg string) {
	if d.err == nil {
		d.err = fmt.Errorf("%s at offset %d", msg, d.off)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil || d.off >= len(d.buf) {
		d.fail("short buffer")
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) bool() bool {
	b := d.byte()
	if b > 1 {
		d.fail("bad bool")
	}
	return b == 1
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	// A zero final group past the first byte is an overlong encoding
	// AppendUvarint never writes; accepting it would let two byte strings
	// decode to one MethodRun.
	if n <= 0 || (n > 1 && d.buf[d.off+n-1] == 0) {
		d.fail("bad uvarint")
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if uint64(len(d.buf)-d.off) < n {
		d.fail("string overruns buffer")
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

func (d *decoder) result() Result {
	var r Result
	r.Config = d.string()
	r.Signature = d.string()
	r.Policy = BranchPolicy(d.byte())
	for _, dst := range [...]*int{
		&r.Fired, &r.Distinct, &r.Static, &r.MeshCycles,
		&r.ParallelCycles, &r.BusyCycles, &r.MaxNode,
	} {
		*dst = int(d.uvarint())
	}
	r.TimedOut = d.bool()
	return r
}
