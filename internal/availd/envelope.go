package availd

import (
	"unicode/utf8"

	"repro/internal/jsonscan"
)

// Bits of the envelope keys scanEvalRequest has seen.
const (
	keySpec = 1 << iota
	keyScenario
	keyOverrides
)

// scanEvalRequest decodes a what-if request body in one pass, without
// reflection, accepting exactly the two shapes clients send:
//
//	{"spec":<object>[,"overrides":{"name":number,...}]}
//	{"scenario":"name"[,"overrides":{"name":number,...}]}
//
// with the keys in any order, each at most once, and JSON whitespace
// between tokens. Names are valid UTF-8 without escapes or control bytes,
// and numbers match the JSON grammar and parse with strconv.ParseFloat.
// Duplicate override names keep the last value, as encoding/json does.
//
// The spec object is located, not validated: req.Spec is the slice of body
// from its opening to its matching closing brace, which is only sound to use
// once the bytes are known to be JSON (see Evaluator.cachedDocument). On any
// other body — an empty object, case-variant or unknown keys, escapes, null,
// nested or out-of-range values, both spec and scenario, anything after the
// closing brace — it returns false, and the caller decodes the body with
// encoding/json instead.
func scanEvalRequest(body []byte, req *EvalRequest) bool {
	*req = EvalRequest{}
	i := skipSpace(body, 0)
	if i >= len(body) || body[i] != '{' {
		return false
	}
	i = skipSpace(body, i+1)
	var seen uint
	for {
		key, j, ok := scanName(body, i)
		if !ok {
			return false
		}
		j = skipSpace(body, j)
		if j >= len(body) || body[j] != ':' {
			return false
		}
		i = skipSpace(body, j+1)
		var bit uint
		switch key {
		case "spec":
			bit = keySpec
			j, ok = skipObject(body, i)
			req.Spec = body[i:j]
		case "scenario":
			bit = keyScenario
			req.Scenario, j, ok = scanName(body, i)
		case "overrides":
			bit = keyOverrides
			req.Overrides, j, ok = scanOverrides(body, i)
		}
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		i = skipSpace(body, j)
		if i < len(body) && body[i] == '}' {
			break
		}
		if i >= len(body) || body[i] != ',' {
			return false
		}
		i = skipSpace(body, i+1)
	}
	if seen&(keySpec|keyScenario) == keySpec|keyScenario {
		return false
	}
	return skipSpace(body, i+1) == len(body)
}

// skipSpace returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanName scans the string starting at b[i] and returns its content and
// the index just past its closing quote. It accepts only valid UTF-8
// without escapes and control bytes, which decodes to itself.
func scanName(b []byte, i int) (string, int, bool) {
	if i >= len(b) || b[i] != '"' {
		return "", i, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			if !utf8.Valid(b[i+1 : j]) {
				return "", j, false
			}
			return string(b[i+1 : j]), j + 1, true
		case c < 0x20 || c == '\\':
			return "", j, false
		}
	}
	return "", len(b), false
}

// skipObject returns the index just past the object starting at b[i],
// matching braces outside strings. It does not validate what it skips.
func skipObject(b []byte, i int) (int, bool) {
	if i >= len(b) || b[i] != '{' {
		return i, false
	}
	depth := 0
	for j := i; j < len(b); j++ {
		switch b[j] {
		case '{':
			depth++
		case '}':
			if depth--; depth == 0 {
				return j + 1, true
			}
		case '"':
			for j++; j < len(b) && b[j] != '"'; j++ {
				if b[j] == '\\' {
					j++
				}
			}
		}
	}
	return len(b), false
}

// scanOverrides scans an object of numbers keyed by name. Like
// encoding/json it yields an empty, non-nil map for {} and keeps the last
// of duplicate names.
func scanOverrides(b []byte, i int) (map[string]float64, int, bool) {
	if i >= len(b) || b[i] != '{' {
		return nil, i, false
	}
	out := make(map[string]float64, 1)
	i = skipSpace(b, i+1)
	if i < len(b) && b[i] == '}' {
		return out, i + 1, true
	}
	for {
		name, j, ok := scanName(b, i)
		if !ok {
			return nil, j, false
		}
		j = skipSpace(b, j)
		if j >= len(b) || b[j] != ':' {
			return nil, j, false
		}
		var v float64
		if v, j, ok = jsonscan.Number(b, skipSpace(b, j+1)); !ok {
			return nil, j, false
		}
		out[name] = v
		j = skipSpace(b, j)
		if j >= len(b) {
			return nil, j, false
		}
		switch b[j] {
		case ',':
			i = skipSpace(b, j+1)
		case '}':
			return out, j + 1, true
		default:
			return nil, j, false
		}
	}
}
