package serve

import (
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"javaflow/internal/sim"
)

// MethodRunContentType is the media type of a /v1/run answer carried in
// sim.MethodRun's binary codec. A request whose Accept header equals it
// gets the MarshalBinary bytes instead of JSON; the dispatch hop asks for
// it, every other client gets JSON.
const MethodRunContentType = "application/x-javaflow-methodrun"

// writeRunJSON writes a 200 /v1/run answer: the bytes json.Encoder with
// SetIndent("", "  ") produces for p, appended by hand and written in one
// call.
func writeRunJSON(w http.ResponseWriter, p RunPayload) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = w.Write(appendRunPayload(make([]byte, 0, 768), p))
}

// writeRunBinary writes a 200 /v1/run answer as the MethodRun codec bytes
// of p's run.
func writeRunBinary(w http.ResponseWriter, p RunPayload) {
	data, err := sim.MethodRun{Signature: p.Signature, BP1: p.BP1, BP2: p.BP2}.MarshalBinary()
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", MethodRunContentType)
	_, _ = w.Write(data)
}

// appendRunPayload appends p as indented JSON, byte for byte what
// encoding/json writes: RunPayload's tagged keys, then sim.Result's Go
// field names, and a trailing newline.
func appendRunPayload(b []byte, p RunPayload) []byte {
	b = append(b, "{\n  \"signature\": "...)
	b = appendJSONString(b, p.Signature)
	b = append(b, ",\n  \"config\": "...)
	b = appendJSONString(b, p.Config)
	b = append(b, ",\n  \"meanIPC\": "...)
	b = appendJSONFloat(b, p.MeanIPC)
	b = append(b, ",\n  \"bp1\": "...)
	b = appendResultJSON(b, p.BP1)
	b = append(b, ",\n  \"bp2\": "...)
	b = appendResultJSON(b, p.BP2)
	return append(b, "\n}\n"...)
}

func appendResultJSON(b []byte, r sim.Result) []byte {
	b = append(b, "{\n    \"Config\": "...)
	b = appendJSONString(b, r.Config)
	b = append(b, ",\n    \"Signature\": "...)
	b = appendJSONString(b, r.Signature)
	b = append(b, ",\n    \"Policy\": "...)
	b = strconv.AppendUint(b, uint64(r.Policy), 10)
	for _, f := range [...]struct {
		key string
		n   int
	}{
		{",\n    \"Fired\": ", r.Fired},
		{",\n    \"Distinct\": ", r.Distinct},
		{",\n    \"Static\": ", r.Static},
		{",\n    \"MeshCycles\": ", r.MeshCycles},
		{",\n    \"ParallelCycles\": ", r.ParallelCycles},
		{",\n    \"BusyCycles\": ", r.BusyCycles},
		{",\n    \"MaxNode\": ", r.MaxNode},
	} {
		b = append(b, f.key...)
		b = strconv.AppendInt(b, int64(f.n), 10)
	}
	b = append(b, ",\n    \"TimedOut\": "...)
	b = strconv.AppendBool(b, r.TimedOut)
	return append(b, "\n  }"...)
}

// appendJSONFloat follows encoding/json's float64 rule: 'f' format, 'e'
// below 1e-6 or from 1e21, with a two-digit negative exponent trimmed
// (e-07 → e-7). NaN and infinities never reach it: IPC is a ratio of
// counts over a non-zero denominator.
func appendJSONFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString quotes s the way encoding/json does with HTML escaping
// on (json.Encoder's default): '"' and '\\' backslashed, \b \f \n \r \t
// short-escaped, other control bytes and <, >, & as \u00XX, U+2028 and
// U+2029 as \u2028 and \u2029, and each invalid UTF-8 byte as the six
// characters \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
