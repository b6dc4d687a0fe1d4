package report

import (
	"errors"
	"io"
	"strconv"
	"unicode"
	"unicode/utf8"
)

// ZeroCSVStream writes CSV byte-identically to encoding/csv's Writer
// (comma separator, LF line endings, the same quoting rules) while
// allocating nothing on the row path: fields append into one reused
// byte buffer, and numbers render through strconv's appenders instead
// of fmt. It exists for the dataset row path, where []string rows and
// fmt.Sprintf cells dominated the serving-path allocation profile.
//
// Usage: NewZeroCSVStream writes the header; each row is a sequence of
// Field/Int/FloatG6 calls closed by EndRow, which validates the column
// count against the header. Byte-identity with encoding/csv is pinned
// by TestZeroCSVMatchesEncodingCSV.
type ZeroCSVStream struct {
	w      io.Writer
	buf    []byte
	ncols  int
	col    int
	closed bool
}

// zeroCSVFlushAt bounds the row buffer: EndRow hands the buffer to the
// writer once it grows past this, keeping memory flat on long streams
// while batching small writes.
const zeroCSVFlushAt = 16 << 10

// NewZeroCSVStream writes the header immediately and returns the stream.
func NewZeroCSVStream(w io.Writer, header ...string) (*ZeroCSVStream, error) {
	if len(header) == 0 {
		return nil, errors.New("report: CSV stream needs a header")
	}
	s := &ZeroCSVStream{w: w, ncols: len(header), buf: make([]byte, 0, zeroCSVFlushAt+1024)}
	for _, h := range header {
		s.Field(h)
	}
	return s, s.EndRow()
}

// Field appends one string field, quoting exactly as encoding/csv does.
func (s *ZeroCSVStream) Field(v string) {
	if s.col > 0 {
		s.buf = append(s.buf, ',')
	}
	s.col++
	if !csvNeedsQuotes(v) {
		s.buf = append(s.buf, v...)
		return
	}
	s.buf = append(s.buf, '"')
	for i := 0; i < len(v); i++ {
		c := v[i]
		if c == '"' {
			s.buf = append(s.buf, '"', '"')
			continue
		}
		s.buf = append(s.buf, c)
	}
	s.buf = append(s.buf, '"')
}

// Int appends one integer field.
func (s *ZeroCSVStream) Int(v int) {
	if s.col > 0 {
		s.buf = append(s.buf, ',')
	}
	s.col++
	s.buf = strconv.AppendInt(s.buf, int64(v), 10)
}

// FloatG6 appends one float rendered as fmt's %.6g — the dataset's
// number format. strconv.AppendFloat with 'g'/6 produces the same bytes
// fmt.Sprintf("%.6g", v) does for every float64, including NaN and the
// infinities (pinned by TestFloatG6MatchesSprintf).
func (s *ZeroCSVStream) FloatG6(v float64) {
	if s.col > 0 {
		s.buf = append(s.buf, ',')
	}
	s.col++
	s.buf = strconv.AppendFloat(s.buf, v, 'g', 6, 64)
}

// EndRow terminates the row, enforcing the header's column count, and
// hands the buffer to the writer when it has grown past the flush bound.
func (s *ZeroCSVStream) EndRow() error {
	if s.closed {
		return errors.New("report: write to closed CSV stream")
	}
	if s.col != s.ncols {
		s.col = 0
		return errors.New("report: CSV row width does not match header")
	}
	s.col = 0
	s.buf = append(s.buf, '\n')
	if len(s.buf) >= zeroCSVFlushAt {
		return s.Flush()
	}
	return nil
}

// Flush writes the buffered rows to the underlying writer; callers
// streaming over HTTP flush at row-group boundaries so clients see
// progress.
func (s *ZeroCSVStream) Flush() error {
	if len(s.buf) == 0 {
		return nil
	}
	_, err := s.w.Write(s.buf)
	s.buf = s.buf[:0]
	return err
}

// Close flushes and marks the stream done. Further writes fail.
func (s *ZeroCSVStream) Close() error {
	s.closed = true
	return s.Flush()
}

// csvNeedsQuotes mirrors encoding/csv's fieldNeedsQuotes for the
// default comma separator without CRLF translation.
func csvNeedsQuotes(f string) bool {
	if f == "" {
		return false
	}
	if f == `\.` {
		return true
	}
	for i := 0; i < len(f); i++ {
		switch f[i] {
		case ',', '"', '\r', '\n':
			return true
		}
	}
	r, _ := utf8.DecodeRuneInString(f)
	return unicode.IsSpace(r)
}
