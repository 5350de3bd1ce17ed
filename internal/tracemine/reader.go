// Package tracemine closes the observability loop in the reverse direction:
// instead of predicting availability from a hand-specified model, it
// *discovers* the model from the running system's spans — scenario
// probabilities π_i and function transitions (the operational profile of
// Figure 2), per-function step graphs with branch probabilities q_ij (the
// interaction diagrams of Figures 3–6) and per-service empirical
// availabilities — each estimate carrying an adjusted-Wald confidence
// interval. A diff engine then compares the discovered model against a
// hand-specified modelspec document and renders a drift verdict, turning the
// trace ring into a drift detector for the model itself.
package tracemine

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"repro/internal/jsonscan"
	"repro/internal/obs"
)

// ErrMine is returned for invalid mining inputs or options.
var ErrMine = errors.New("tracemine: invalid input")

// ReadStats counts what the tolerant span reader saw. Content problems are
// never fatal: malformed and duplicate lines are skipped and counted here.
type ReadStats struct {
	// Lines is the number of non-empty input lines consumed.
	Lines int64 `json:"lines"`
	// Spans is the number of spans parsed and kept.
	Spans int64 `json:"spans"`
	// Malformed counts skipped lines: invalid JSON, truncated tails and
	// spans failing structural validation (bad ID, level or duration).
	Malformed int64 `json:"malformed"`
	// Duplicates counts spans skipped because their (trace, id) pair was
	// already seen.
	Duplicates int64 `json:"duplicates"`
	// Traces is the number of distinct traces assembled.
	Traces int64 `json:"traces"`
}

// spanProblem validates one decoded span; a non-nil result means the span
// must be counted malformed.
func spanProblem(sp *obs.Span) error {
	if sp.ID < 1 {
		return fmt.Errorf("span id %d", sp.ID)
	}
	if sp.Parent < 0 || sp.Parent >= sp.ID {
		return fmt.Errorf("span parent %d for id %d", sp.Parent, sp.ID)
	}
	switch sp.Level {
	case obs.LevelVisit, obs.LevelFunction, obs.LevelStep, obs.LevelResource:
	default:
		return fmt.Errorf("span level %q", sp.Level)
	}
	if sp.Duration < 0 || math.IsNaN(sp.Duration) || math.IsInf(sp.Duration, 0) {
		return fmt.Errorf("span duration %v", sp.Duration)
	}
	if math.IsNaN(sp.Start) || math.IsInf(sp.Start, 0) {
		return fmt.Errorf("span start %v", sp.Start)
	}
	return nil
}

// grouper folds validated spans into traces in first-appearance order,
// dropping duplicate (trace, id) pairs.
//
// A stream writes each trace's spans together, so the grouper keeps the
// spans of a trace's first appearance as the open run of a span arena and
// seals the run into the trace when the stream moves on to another trace;
// only then does it look the new trace up. A trace that turns up again
// after others appends to its sealed run, which copies it out of the arena.
type grouper struct {
	stats ReadStats
	index map[uint64]int // trace → position in out
	out   []obs.Trace
	ids   []traceIDs // per position in out
	spans arena[obs.Span]
	cur   int    // position in out of the current trace; -1 before any
	trace uint64 // the current trace
	inRun bool   // the current trace's spans are the arena's open run
	// fallbacks counts the lines readSpans handed to encoding/json.
	fallbacks int64
}

// traceIDs is what dedup keeps per trace. A span ID above the trace's
// largest so far cannot repeat one, so only a trace whose IDs stop
// increasing pays for a set of them.
type traceIDs struct {
	max  int
	seen map[int]struct{} // every kept ID, from the first non-increasing one on
}

func newGrouper() *grouper {
	return &grouper{index: make(map[uint64]int), cur: -1}
}

func (g *grouper) add(sp *obs.Span) {
	if err := spanProblem(sp); err != nil {
		g.stats.Malformed++
		return
	}
	if g.cur < 0 || sp.Trace != g.trace {
		g.switchTo(sp.Trace)
	}
	ids := &g.ids[g.cur]
	if sp.ID <= ids.max {
		if ids.seen == nil {
			kept := g.out[g.cur].Spans
			if g.inRun {
				kept = g.spans.open()
			}
			ids.seen = make(map[int]struct{}, len(kept)+1)
			for i := range kept {
				ids.seen[kept[i].ID] = struct{}{}
			}
		}
		if _, dup := ids.seen[sp.ID]; dup {
			g.stats.Duplicates++
			return
		}
	}
	if ids.seen != nil {
		ids.seen[sp.ID] = struct{}{}
	}
	ids.max = max(ids.max, sp.ID)
	if g.inRun {
		g.spans.push(sp)
	} else {
		g.out[g.cur].Spans = append(g.out[g.cur].Spans, *sp)
	}
	g.stats.Spans++
}

// switchTo seals the current trace's run and makes trace current, opening
// a run for it when it is new.
func (g *grouper) switchTo(trace uint64) {
	g.seal()
	idx, seen := g.index[trace]
	if !seen {
		idx = len(g.out)
		g.index[trace] = idx
		g.out = append(g.out, obs.Trace{})
		g.ids = append(g.ids, traceIDs{})
		g.stats.Traces++
	}
	g.cur, g.trace, g.inRun = idx, trace, !seen
}

// seal stores the open run, if any, as the current trace's spans.
func (g *grouper) seal() {
	if g.inRun {
		g.out[g.cur].Spans = g.spans.seal()
		g.inRun = false
	}
}

// GroupSpans folds already-decoded spans into traces in first-appearance
// order, skipping structurally invalid spans and duplicate (trace, id) pairs.
//
// The traces' span slices share backing arrays but never capacity: each
// is either sealed with cap == len or owned by its trace alone, so
// appending to one never writes into another.
func GroupSpans(spans []obs.Span) ([]obs.Trace, ReadStats) {
	g := newGrouper()
	for i := range spans {
		g.add(&spans[i])
	}
	g.seal()
	return g.out, g.stats
}

// maxLineBytes bounds one span line. A longer line is counted malformed and
// skipped to its newline without being buffered: a span written by
// obs.Tracer is a few hundred bytes, and intake (tracemine -url, stdin, a
// file) must not grow a buffer without limit on hostile input.
const maxLineBytes = 1 << 20

// ReadSpans consumes JSON-lines spans from r — the /traces wire format and
// the -trace-out flush format — and groups the surviving spans into traces
// in first-appearance order. The reader is tolerant by design: malformed
// JSON, truncated final lines, lines over 1 MiB, structurally invalid spans
// and duplicate span IDs are skipped and counted, never fatal. Only an I/O
// error from the underlying reader aborts the scan.
//
// Lines in the exact shape obs.Tracer writes are decoded without
// reflection (see decodeSpan); every other line goes through
// encoding/json, so the result is the same either way. The returned span
// slices alias one another's backing arrays as GroupSpans describes.
func ReadSpans(r io.Reader) ([]obs.Trace, ReadStats, error) {
	g, err := readSpans(r)
	return g.out, g.stats, err
}

func readSpans(r io.Reader) (*grouper, error) {
	g := newGrouper()
	names := make(interner)
	br := bufio.NewReaderSize(r, 64<<10)
	var long []byte // reused for lines longer than br's buffer
	for {
		line, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			long = append(long[:0], line...)
			for err == bufio.ErrBufferFull && len(long) <= maxLineBytes {
				line, err = br.ReadSlice('\n')
				long = append(long, line...)
			}
			for err == bufio.ErrBufferFull { // over the cap: drop the rest
				_, err = br.ReadSlice('\n')
			}
			line = long
		}
		trimmed := bytes.TrimSpace(line)
		switch {
		case len(line) > maxLineBytes:
			g.stats.Lines++
			g.stats.Malformed++
		case len(trimmed) > 0:
			g.stats.Lines++
			var sp obs.Span
			if !decodeSpan(trimmed, names, &sp) {
				g.fallbacks++
				var ok bool
				if sp, ok = unmarshalSpan(trimmed); !ok {
					g.stats.Malformed++
					break
				}
			}
			g.add(&sp)
		}
		if err == io.EOF {
			g.seal()
			return g, nil
		}
		if err != nil {
			g.seal()
			return g, fmt.Errorf("tracemine: read spans: %w", err)
		}
	}
}

// unmarshalSpan decodes a line the fast path declined with encoding/json,
// into a fresh span (a separate function keeps the fast path's span off the
// heap).
func unmarshalSpan(line []byte) (obs.Span, bool) {
	var sp obs.Span
	err := json.Unmarshal(line, &sp)
	return sp, err == nil
}

// maxInterned caps the distinct strings one ReadSpans call interns, so a
// hostile stream of unique names cannot make the table outgrow the spans.
const maxInterned = 1 << 12

// interner shares one copy of each repeated span string (names, causes,
// attr keys and values, levels other than the four) within one ReadSpans
// call.
type interner map[string]string

func (in interner) intern(b []byte) string {
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	if len(in) < maxInterned {
		in[s] = s
	}
	return s
}

// Bits of the span keys decodeSpan has seen on the current line.
const (
	keyTrace = 1 << iota
	keyID
	keyParent
	keyLevel
	keyName
	keyStart
	keyDuration
	keyOK
	keyCause
	keyAttrs
)

// decodeSpan decodes one span line without reflection, accepting exactly
// the shape obs.Tracer.WriteJSONLLimit writes: a single object holding only
// the lowercase obs.Span keys, each at most once and in any order, with no
// whitespace and nothing after the closing brace. Integers are unsigned
// decimals without leading zeros, numbers match the JSON grammar, and
// strings (attrs values included) are ASCII with no escapes and no control
// bytes. Given such a line it fills *sp exactly as json.Unmarshal into a
// zero obs.Span would and returns true. On any other line — unknown or
// case-variant keys, escapes, null, whitespace, out-of-range numbers — it
// returns false, leaving *sp in an unspecified state, and the caller falls
// back to encoding/json.
func decodeSpan(line []byte, names interner, sp *obs.Span) bool {
	*sp = obs.Span{}
	if len(line) < 2 || line[0] != '{' {
		return false
	}
	if line[1] == '}' {
		return len(line) == 2
	}
	var seen uint
	i := 1
	for {
		key, j, ok := scanString(line, i)
		if !ok || j >= len(line) || line[j] != ':' {
			return false
		}
		i = j + 1
		var bit uint
		switch string(key) {
		case "trace":
			bit = keyTrace
			sp.Trace, i, ok = scanUint(line, i, math.MaxUint64)
		case "id":
			bit = keyID
			var n uint64
			n, i, ok = scanUint(line, i, math.MaxInt)
			sp.ID = int(n)
		case "parent":
			bit = keyParent
			var n uint64
			n, i, ok = scanUint(line, i, math.MaxInt)
			sp.Parent = int(n)
		case "level":
			bit = keyLevel
			sp.Level, i, ok = scanLevel(line, i, names)
		case "name":
			bit = keyName
			sp.Name, i, ok = scanName(line, i, names)
		case "start":
			bit = keyStart
			sp.Start, i, ok = jsonscan.Number(line, i)
		case "duration":
			bit = keyDuration
			sp.Duration, i, ok = jsonscan.Number(line, i)
		case "ok":
			bit = keyOK
			sp.OK, i, ok = scanBool(line, i)
		case "cause":
			bit = keyCause
			sp.Cause, i, ok = scanName(line, i, names)
		case "attrs":
			bit = keyAttrs
			sp.Attrs, i, ok = scanAttrs(line, i, names)
		}
		if !ok || bit == 0 || seen&bit != 0 || i >= len(line) {
			return false
		}
		seen |= bit
		switch line[i] {
		case ',':
			i++
		case '}':
			return i+1 == len(line)
		default:
			return false
		}
	}
}

// scanString scans the string starting at line[i] and returns its content
// and the index just past its closing quote. It accepts only printable
// ASCII without escapes.
func scanString(line []byte, i int) ([]byte, int, bool) {
	if i >= len(line) || line[i] != '"' {
		return nil, i, false
	}
	for j := i + 1; j < len(line); j++ {
		switch c := line[j]; {
		case c == '"':
			return line[i+1 : j], j + 1, true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, j, false
		}
	}
	return nil, len(line), false
}

// scanName scans a string value and interns it.
func scanName(line []byte, i int, names interner) (string, int, bool) {
	b, j, ok := scanString(line, i)
	if !ok {
		return "", j, false
	}
	return names.intern(b), j, true
}

// scanLevel scans a level value, sharing the obs.Level constant's string
// when it is one of the four levels.
func scanLevel(line []byte, i int, names interner) (obs.Level, int, bool) {
	b, j, ok := scanString(line, i)
	if !ok {
		return "", j, false
	}
	switch string(b) {
	case string(obs.LevelVisit):
		return obs.LevelVisit, j, true
	case string(obs.LevelFunction):
		return obs.LevelFunction, j, true
	case string(obs.LevelStep):
		return obs.LevelStep, j, true
	case string(obs.LevelResource):
		return obs.LevelResource, j, true
	}
	return obs.Level(names.intern(b)), j, true
}

// scanUint scans an unsigned decimal integer without leading zeros that
// does not exceed max.
func scanUint(line []byte, i int, max uint64) (uint64, int, bool) {
	j := i
	var n uint64
	for ; j < len(line) && line[j] >= '0' && line[j] <= '9'; j++ {
		d := uint64(line[j] - '0')
		if n > (max-d)/10 {
			return 0, j, false
		}
		n = n*10 + d
	}
	if j == i || (line[i] == '0' && j > i+1) {
		return 0, j, false
	}
	return n, j, true
}

// scanBool scans a true or false literal.
func scanBool(line []byte, i int) (bool, int, bool) {
	switch {
	case bytes.HasPrefix(line[i:], []byte("true")):
		return true, i + 4, true
	case bytes.HasPrefix(line[i:], []byte("false")):
		return false, i + 5, true
	}
	return false, i, false
}

// scanAttrs scans an object of string values. Like encoding/json it yields
// an empty, non-nil map for {} and keeps the last of duplicate keys.
func scanAttrs(line []byte, i int, names interner) (map[string]string, int, bool) {
	if i >= len(line) || line[i] != '{' {
		return nil, i, false
	}
	attrs := make(map[string]string, 4)
	i++
	if i < len(line) && line[i] == '}' {
		return attrs, i + 1, true
	}
	for {
		k, j, ok := scanName(line, i, names)
		if !ok || j >= len(line) || line[j] != ':' {
			return nil, j, false
		}
		v, j, ok := scanName(line, j+1, names)
		if !ok || j >= len(line) {
			return nil, j, false
		}
		attrs[k] = v
		switch line[j] {
		case ',':
			i = j + 1
		case '}':
			return attrs, j + 1, true
		default:
			return nil, j, false
		}
	}
}
