package availd

import (
	"encoding/json"
	"math"
	"sort"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/hierarchy"
)

// The renderer below appends JSON by hand. Its output is byte-identical to
// json.Marshal of the same EvalResponse (FuzzRenderReport checks this):
// fields in declaration order, map keys sorted, floats and strings formatted
// as encoding/json formats them.

// appendReport appends the EvalResponse of a hierarchy report to dst.
func appendReport(dst []byte, name string, rep *hierarchy.Report) ([]byte, error) {
	var err error
	dst = append(dst, '{')
	if name != "" {
		dst = append(dst, `"model":`...)
		dst = appendString(dst, name)
		dst = append(dst, ',')
	}
	dst = append(dst, `"services":`...)
	if dst, err = appendFloatMap(dst, rep.Services); err != nil {
		return nil, err
	}
	dst = append(dst, `,"functions":`...)
	if dst, err = appendFloatMap(dst, rep.Functions); err != nil {
		return nil, err
	}
	dst = append(dst, `,"scenarios":[`...)
	for i, sc := range rep.Scenarios {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, `{"name":`...)
		dst = appendString(dst, sc.Name)
		dst = append(dst, `,"probability":`...)
		if dst, err = appendFloat(dst, sc.Probability); err != nil {
			return nil, err
		}
		dst = append(dst, `,"availability":`...)
		if dst, err = appendFloat(dst, sc.Availability); err != nil {
			return nil, err
		}
		dst = append(dst, '}')
	}
	dst = append(dst, `],"userAvailability":`...)
	if dst, err = appendFloat(dst, rep.UserAvailability); err != nil {
		return nil, err
	}
	dst = append(dst, `,"userUnavailability":`...)
	if dst, err = appendFloat(dst, rep.UserUnavailability()); err != nil {
		return nil, err
	}
	return append(dst, '}'), nil
}

// appendWhatIfTail appends the baseline and delta fields of a what-if
// response, and the closing brace, to dst.
func appendWhatIfTail(dst []byte, baseline, delta float64) ([]byte, error) {
	var err error
	dst = append(dst, `,"baselineUserAvailability":`...)
	if dst, err = appendFloat(dst, baseline); err != nil {
		return nil, err
	}
	dst = append(dst, `,"delta":`...)
	if dst, err = appendFloat(dst, delta); err != nil {
		return nil, err
	}
	return append(dst, '}'), nil
}

// appendFloatMap appends m as a JSON object with sorted keys; a nil map is
// null.
func appendFloatMap(dst []byte, m map[string]float64) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = appendFloat(dst, m[k]); err != nil {
			return nil, err
		}
	}
	return append(dst, '}'), nil
}

// appendFloat appends f as encoding/json does: the shortest representation,
// in exponent form below 1e-6 and from 1e21 on, with the exponent's leading
// zero dropped. NaN and ±Inf are the error json.Marshal returns.
func appendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if format == 'e' {
		if n := len(dst); n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
			dst[n-2] = dst[n-1]
			dst = dst[:n-1]
		}
	}
	return dst, nil
}

// appendString appends s as a JSON string the way encoding/json does: HTML
// characters <, > and & escaped, control characters escaped, U+2028 and
// U+2029 escaped, and each byte of invalid UTF-8 replaced by U+FFFD.
func appendString(dst []byte, s string) []byte {
	const hex = "0123456789abcdef"
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= 0x20 && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '\\', '"':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hex[b>>4], hex[b&0xF])
			}
			i++
			start = i
			continue
		}
		c, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case c == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case c == '\u2028' || c == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hex[c&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
}

// maxPooledBuffer bounds the buffers bufferPool keeps, so one large request
// body does not stay resident.
const maxPooledBuffer = 64 << 10

// bufferPool recycles request and response buffers across requests.
var bufferPool = sync.Pool{New: func() any { return new([]byte) }}

func getBuffer() *[]byte { return bufferPool.Get().(*[]byte) }

func putBuffer(b *[]byte) {
	if cap(*b) <= maxPooledBuffer {
		*b = (*b)[:0]
		bufferPool.Put(b)
	}
}
