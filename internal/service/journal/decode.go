package journal

import (
	"bufio"
	"encoding/json"
	"io"
	"math"
)

// decode parses one journal line into r, which must be zero. Lines in
// the form json.Marshal writes a Record take the strict single-pass
// path; any other line — whitespace, null, escapes, unknown or
// case-variant keys, a spec — goes through json.Unmarshal, so the
// result is json.Unmarshal's either way.
func decode(line []byte, r *Record) error {
	if decodeStrict(line, r) {
		return nil
	}
	*r = Record{}
	return json.Unmarshal(line, r)
}

// Record fields, as decodeStrict tells them apart.
const (
	fOp = iota
	fID
	fBench
	fKey
	fPriority
	fAt
	fCorr
	fStartAt
	fSubmitAt
	fCycles
	fSamples
	fHash
	fError
)

// decodeStrict parses a flat Record object in the exact form
// json.Marshal writes: no whitespace, every key spelled as its tag (a
// repeated key overwrites, as in json.Unmarshal), string values of
// printable ASCII with no escape, Op one of the lifecycle constants (or
// empty), and decimal integers with no leading zero, fraction or
// exponent that fit their field. It reports false, leaving r partly
// written, on anything else, a spec included: only submit records of
// unfinished jobs carry one, and a compacted journal is mostly folded
// records. Every line it accepts decodes to the record json.Unmarshal
// would produce. All of a line's string fields share one allocation.
func decodeStrict(line []byte, r *Record) bool {
	n := len(line)
	if n < 2 || line[0] != '{' || line[n-1] != '}' {
		return false
	}
	if n == 2 {
		return true
	}
	str := string(line)
	i := 1
	for {
		ks, ke, ok := scanString(line, i)
		if !ok || ke >= n || line[ke] != ':' {
			return false
		}
		f := fieldOf(line[ks+1 : ke-1])
		if f < 0 {
			return false
		}
		i = ke + 1
		switch f {
		case fOp, fID, fBench, fKey, fCorr, fHash, fError:
			s, e, ok := scanString(line, i)
			if !ok {
				return false
			}
			v := str[s+1 : e-1]
			switch f {
			case fOp:
				op, ok := opOf(v)
				if !ok {
					return false
				}
				r.Op = op
			case fID:
				r.ID = v
			case fBench:
				r.Bench = v
			case fKey:
				r.Key = v
			case fCorr:
				r.Corr = v
			case fHash:
				r.Hash = v
			case fError:
				r.Error = v
			}
			i = e
		default:
			v, e, ok := scanInt(line, i)
			if !ok {
				return false
			}
			switch f {
			case fPriority:
				if v < math.MinInt || v > math.MaxInt {
					return false
				}
				r.Priority = int(v)
			case fAt:
				r.At = v
			case fStartAt:
				r.StartAt = v
			case fSubmitAt:
				r.SubmitAt = v
			case fCycles:
				r.Cycles = v
			case fSamples:
				r.Samples = v
			}
			i = e
		}
		if i >= n {
			return false
		}
		switch line[i] {
		case '}':
			return i == n-1
		case ',':
			i++
		default:
			return false
		}
	}
}

// fieldOf maps a key to its Record field, or -1 for "spec" and for any
// key that is not exactly one of Record's JSON tags.
func fieldOf(key []byte) int {
	switch string(key) {
	case "op":
		return fOp
	case "id":
		return fID
	case "bench":
		return fBench
	case "key":
		return fKey
	case "priority":
		return fPriority
	case "at":
		return fAt
	case "corr":
		return fCorr
	case "start_at":
		return fStartAt
	case "submit_at":
		return fSubmitAt
	case "cycles":
		return fCycles
	case "samples":
		return fSamples
	case "hash":
		return fHash
	case "error":
		return fError
	}
	return -1
}

// opOf maps an op string to its constant, so replayed records share
// the constants' storage; the empty op is kept, any other declines.
func opOf(s string) (Op, bool) {
	switch Op(s) {
	case "":
		return "", true
	case OpSubmit:
		return OpSubmit, true
	case OpStart:
		return OpStart, true
	case OpCheckpoint:
		return OpCheckpoint, true
	case OpDone:
		return OpDone, true
	case OpFailed:
		return OpFailed, true
	case OpCanceled:
		return OpCanceled, true
	}
	return "", false
}

// scanString scans a string starting at b[i] whose bytes are all
// printable ASCII other than '"' and '\\', returning the offsets of its
// opening quote and one past its closing one.
func scanString(b []byte, i int) (start, end int, ok bool) {
	if i >= len(b) || b[i] != '"' {
		return 0, 0, false
	}
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return i, j + 1, true
		case c < 0x20 || c > 0x7e || c == '\\':
			return 0, 0, false
		}
	}
	return 0, 0, false
}

// scanInt scans a decimal integer starting at b[i]: an optional minus
// sign, then 0 or a digit string with no leading zero, in int64 range
// and not followed by a fraction or exponent. It returns the value and
// the offset just past it.
func scanInt(b []byte, i int) (v int64, end int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	if i >= len(b) || b[i] < '0' || b[i] > '9' {
		return 0, 0, false
	}
	if b[i] == '0' {
		i++
	} else {
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
	}
	if i < len(b) && (b[i] >= '0' && b[i] <= '9' || b[i] == '.' || b[i] == 'e' || b[i] == 'E') {
		return 0, 0, false
	}
	if i-start > 19 {
		return 0, 0, false
	}
	var u uint64 // at most 19 digits: no overflow
	for _, c := range b[start:i] {
		u = u*10 + uint64(c-'0')
	}
	switch {
	case neg && u <= 1<<63:
		return -int64(u), i, true
	case !neg && u <= math.MaxInt64:
		return int64(u), i, true
	}
	return 0, 0, false
}

// lineReader splits a stream into lines as bufio.ScanLines does — the
// newline and a trailing \r are dropped, and a final newline ends the
// last line rather than starting an empty one — but with no length
// limit: a line longer than the read buffer is gathered into long.
type lineReader struct {
	r    *bufio.Reader
	long []byte
}

// next returns the next line, valid until the following call, or
// io.EOF after the last.
func (l *lineReader) next() ([]byte, error) {
	line, err := l.r.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		l.long = append(l.long[:0], line...)
		for err == bufio.ErrBufferFull {
			line, err = l.r.ReadSlice('\n')
			l.long = append(l.long, line...)
		}
		line = l.long
	}
	switch {
	case err == nil:
		line = line[:len(line)-1]
	case err != io.EOF:
		return nil, err
	case len(line) == 0:
		return nil, io.EOF
	}
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}
