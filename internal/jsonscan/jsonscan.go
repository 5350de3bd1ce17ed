// Package jsonscan holds what the reflection-free JSON decoders share: the
// span-line decoder in internal/tracemine and the what-if envelope scanner
// in internal/availd. Each accepts only input it decodes exactly as
// encoding/json would, and leaves everything else to encoding/json.
package jsonscan

import "strconv"

// Number scans a number matching the JSON grammar
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? starting at line[i] and
// parses it as encoding/json parses a float64, declining values out of
// float64 range. It returns the index just past the number.
func Number(line []byte, i int) (float64, int, bool) {
	j := i
	digits := func() int {
		k := j
		for j < len(line) && line[j] >= '0' && line[j] <= '9' {
			j++
		}
		return j - k
	}
	if j < len(line) && line[j] == '-' {
		j++
	}
	switch n := digits(); {
	case n == 0:
		return 0, j, false
	case n > 1 && line[j-n] == '0':
		return 0, j, false
	}
	if j < len(line) && line[j] == '.' {
		j++
		if digits() == 0 {
			return 0, j, false
		}
	}
	if j < len(line) && (line[j] == 'e' || line[j] == 'E') {
		j++
		if j < len(line) && (line[j] == '+' || line[j] == '-') {
			j++
		}
		if digits() == 0 {
			return 0, j, false
		}
	}
	f, err := strconv.ParseFloat(string(line[i:j]), 64)
	if err != nil {
		return 0, j, false
	}
	return f, j, true
}
