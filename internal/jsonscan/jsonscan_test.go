package jsonscan

import (
	"encoding/json"
	"math"
	"testing"
)

// FuzzNumber checks Number against json.Unmarshal into a float64: a whole
// input Number accepts must decode to the same bits, and every bare number
// encoding/json accepts must be accepted.
func FuzzNumber(f *testing.F) {
	for _, seed := range []string{
		"0", "-0", "1", "0.5", "1e400", "1e-400", "-1.5E+3", "01", "+1", ".5", "5.", "1e", "1e+",
		"5e-324", "1.7976931348623157e308", "123456789012345678901234567890", "-", "", "0x1", "1_0", "NaN",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, s string) {
		got, end, ok := Number([]byte(s), 0)
		var want float64
		err := json.Unmarshal([]byte(s), &want)
		bare := len(s) > 0 && (s[0] == '-' || s[0] >= '0' && s[0] <= '9') && s[len(s)-1] >= '0' && s[len(s)-1] <= '9'
		switch {
		case ok && end == len(s):
			if err != nil || math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("Number(%q) = %v, json.Unmarshal = %v, %v", s, got, want, err)
			}
		case err == nil && bare:
			t.Fatalf("Number(%q) declined (end %d) what json.Unmarshal decodes as %v", s, end, want)
		}
	})
}
