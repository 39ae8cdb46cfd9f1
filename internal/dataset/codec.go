// Compact binary codec for benchmark folds. The JSON codec in json.go
// optimises for diffability; this one optimises for cold-load speed and
// size at 100k+ question scale. The format is streaming on both sides:
// the writer never needs the whole fold in memory (questions are framed
// one at a time) and the reader can hand back shard-sized windows.
//
// Format (all integers little-endian; uvarint = unsigned LEB128):
//
//	magic   "CVQB"
//	version uvarint (currently 1)
//	name    raw string (uvarint length + bytes)
//	records zero or more: uvarint payloadLen (> 0), payload bytes
//	end     uvarint 0 sentinel
//	trailer uvarint question count, 4-byte CRC-32C of all payloads
//
// A record payload's first byte is its type: 'S' appends the rest of
// the payload to the string-intern table; 'Q' is one question. Strings
// inside question payloads are either inline (tag 0, then uvarint
// length + bytes) or references to the table (tag n >= 2 means entry
// n-2); the writer emits 'S' records before the first question record
// that uses them, so by the time a question arrives the table already
// holds everything it references. Only strings of at most internMaxLen
// bytes are interned and the table is capped at internMaxEntries, so
// decoder memory stays bounded no matter the fold size — unique
// prompts stay inline, while units, topics, labels and attribute keys
// collapse to one- or two-byte references.
//
// Because question records never mutate the table, each one is
// independently decodable once the table is built — ReadPack exploits
// that with a two-pass whole-buffer load (scan frames and verify the
// trailer, then decode records on every CPU), which is where the
// codec's cold-load speedup over fold regeneration comes from.
// StreamPack keeps the sequential incremental path for bounded-memory
// consumption.
package dataset

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"runtime"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/visual"
)

const (
	packMagic        = "CVQB"
	packVersion      = 1
	internMaxLen     = 64
	internMaxEntries = 1 << 16

	recString = 'S'
	recQuest  = 'Q'

	// packMaxPayload bounds a single record; any legitimate question is
	// far below it, so larger frames signal corruption before the
	// decoder allocates for them.
	packMaxPayload = 1 << 26
)

// packCRC is the Castagnoli polynomial table — CRC-32C has hardware
// support on amd64/arm64, so checksumming never dominates a cold load.
var packCRC = crc32.MakeTable(crc32.Castagnoli)

// PackWriter serialises questions into the binary pack format. It does
// not close the underlying writer; callers own that handle and must
// call Close to finish the stream and learn about buffered write
// errors.
type PackWriter struct {
	w       *bufio.Writer
	tab     map[string]int // -1 = seen once, >= 0 = table index
	entries int
	pending []string // interned strings awaiting their 'S' records
	buf     []byte
	sum     uint32
	count   uint64
	closed  bool
	err     error
}

// NewPackWriter starts a pack stream on w with the benchmark name in
// the header.
func NewPackWriter(w io.Writer, name string) *PackWriter {
	pw := &PackWriter{
		w:   bufio.NewWriterSize(w, 1<<16),
		tab: make(map[string]int),
	}
	hdr := []byte(packMagic)
	hdr = binary.AppendUvarint(hdr, packVersion)
	hdr = binary.AppendUvarint(hdr, uint64(len(name)))
	hdr = append(hdr, name...)
	_, pw.err = pw.w.Write(hdr)
	return pw
}

// appendString encodes s as a table reference when it has been seen
// before, promoting it into the table on its second occurrence.
// One-shot strings (IDs, unique prompts) therefore never consume table
// entries — which matters at 100k+ scale, where first-occurrence
// interning would saturate internMaxEntries with strings that never
// repeat and leave no room for the ones that do.
func (pw *PackWriter) appendString(s string) {
	if ref, ok := pw.tab[s]; ok {
		if ref < 0 {
			if len(s) <= internMaxLen && pw.entries < internMaxEntries {
				ref = pw.entries
				pw.entries++
				pw.tab[s] = ref
				pw.pending = append(pw.pending, s)
				pw.buf = binary.AppendUvarint(pw.buf, uint64(ref)+2)
				return
			}
		} else {
			pw.buf = binary.AppendUvarint(pw.buf, uint64(ref)+2)
			return
		}
	} else if len(s) <= internMaxLen && pw.entries < internMaxEntries {
		pw.tab[s] = -1
	}
	pw.buf = binary.AppendUvarint(pw.buf, 0)
	pw.buf = binary.AppendUvarint(pw.buf, uint64(len(s)))
	pw.buf = append(pw.buf, s...)
}

func (pw *PackWriter) appendStrings(ss []string) {
	pw.buf = binary.AppendUvarint(pw.buf, uint64(len(ss)))
	for _, s := range ss {
		pw.appendString(s)
	}
}

func (pw *PackWriter) appendFloat(f float64) {
	pw.buf = binary.LittleEndian.AppendUint64(pw.buf, math.Float64bits(f))
}

func (pw *PackWriter) appendBool(b bool) {
	if b {
		pw.buf = append(pw.buf, 1)
	} else {
		pw.buf = append(pw.buf, 0)
	}
}

func (pw *PackWriter) appendScene(s *visual.Scene) {
	pw.buf = binary.AppendUvarint(pw.buf, uint64(s.Kind))
	pw.appendString(s.Title)
	pw.buf = binary.AppendUvarint(pw.buf, uint64(s.Width))
	pw.buf = binary.AppendUvarint(pw.buf, uint64(s.Height))
	pw.buf = binary.AppendUvarint(pw.buf, uint64(len(s.Elements)))
	for i := range s.Elements {
		e := &s.Elements[i]
		pw.buf = binary.AppendUvarint(pw.buf, uint64(e.Type))
		pw.appendString(e.Name)
		pw.appendString(e.Label)
		pw.appendFloat(e.X)
		pw.appendFloat(e.Y)
		pw.appendFloat(e.X2)
		pw.appendFloat(e.Y2)
		pw.buf = binary.AppendUvarint(pw.buf, uint64(len(e.Points)))
		for _, p := range e.Points {
			pw.appendFloat(p.X)
			pw.appendFloat(p.Y)
		}
		// Attrs keys are sorted so the byte stream (and the intern
		// table evolution) is deterministic regardless of map order.
		pw.buf = binary.AppendUvarint(pw.buf, uint64(len(e.Attrs)))
		keys := make([]string, 0, len(e.Attrs))
		for k := range e.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			pw.appendString(k)
			pw.appendString(e.Attrs[k])
		}
		pw.appendFloat(e.Salience)
		pw.appendBool(e.Critical)
	}
}

// writeFrame emits one length-prefixed record and folds it into the
// running checksum.
func (pw *PackWriter) writeFrame(payload []byte) error {
	var frame [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(frame[:], uint64(len(payload)))
	if _, err := pw.w.Write(frame[:n]); err != nil {
		pw.err = err
		return err
	}
	if _, err := pw.w.Write(payload); err != nil {
		pw.err = err
		return err
	}
	pw.sum = crc32.Update(pw.sum, packCRC, payload)
	return nil
}

// WriteQuestion appends one question record to the stream, preceded by
// 'S' records for any strings the question newly interns.
func (pw *PackWriter) WriteQuestion(q *Question) error {
	if pw.err != nil {
		return pw.err
	}
	if pw.closed {
		return fmt.Errorf("dataset: pack: write after Close")
	}
	pw.buf = append(pw.buf[:0], recQuest)
	pw.appendString(q.ID)
	pw.buf = binary.AppendUvarint(pw.buf, uint64(q.Category))
	pw.buf = binary.AppendUvarint(pw.buf, uint64(q.Type))
	pw.appendString(q.Topic)
	pw.appendString(q.Prompt)
	pw.appendStrings(q.Choices)
	pw.buf = binary.AppendUvarint(pw.buf, uint64(q.Golden.Kind))
	pw.buf = binary.AppendUvarint(pw.buf, uint64(q.Golden.Choice))
	pw.appendFloat(q.Golden.Number)
	pw.appendString(q.Golden.Unit)
	pw.appendFloat(q.Golden.Tolerance)
	pw.appendString(q.Golden.Text)
	pw.appendStrings(q.Golden.Accept)
	pw.appendBool(q.Challenge)
	pw.appendFloat(q.Difficulty)
	if q.Visual != nil {
		pw.appendBool(true)
		pw.appendScene(q.Visual)
	} else {
		pw.appendBool(false)
	}

	// Flush the strings this question interned, in table-index order,
	// before the question record that references them.
	for _, s := range pw.pending {
		rec := make([]byte, 0, len(s)+1)
		rec = append(rec, recString)
		rec = append(rec, s...)
		if err := pw.writeFrame(rec); err != nil {
			return err
		}
	}
	pw.pending = pw.pending[:0]
	if err := pw.writeFrame(pw.buf); err != nil {
		return err
	}
	pw.count++
	return nil
}

// WriteShard appends every question of a shard, in order.
func (pw *PackWriter) WriteShard(s Shard) error {
	for _, q := range s.Questions {
		if err := pw.WriteQuestion(q); err != nil {
			return err
		}
	}
	return nil
}

// Close finishes the stream: it writes the end sentinel and trailer and
// flushes buffered bytes, surfacing any write error that occurred along
// the way. It does not close the underlying writer. Close is
// idempotent; later calls return the first result.
func (pw *PackWriter) Close() error {
	if pw.closed {
		return pw.err
	}
	pw.closed = true
	if pw.err != nil {
		return pw.err
	}
	var tail []byte
	tail = binary.AppendUvarint(tail, 0)
	tail = binary.AppendUvarint(tail, pw.count)
	tail = binary.LittleEndian.AppendUint32(tail, pw.sum)
	if _, err := pw.w.Write(tail); err != nil {
		pw.err = err
		return err
	}
	pw.err = pw.w.Flush()
	return pw.err
}

// packAlloc batches the allocations of decoded values: questions,
// scenes, elements, points and string slices are handed out of slab
// arrays refilled in blocks, so a cold load does a small constant
// number of heap allocations per block of questions instead of several
// per question. Windows are capacity-clipped so appends by callers
// never bleed into a neighbouring window.
type packAlloc struct {
	qslab   []Question
	sslab   []visual.Scene
	eslab   []visual.Element
	pslab   []visual.Point
	strslab []string

	// attrs and elems dedupe decoded attribute maps and element windows
	// by the raw bytes of their encoded block: generated folds repeat a
	// handful of attribute sets (and many whole element sections) across
	// thousands of scenes, and building those is the most expensive part
	// of a cold load. Byte-identical blocks share one read-only value —
	// the same contract decoded questions already carry when shared
	// across evaluation workers.
	attrs map[string]map[string]string
	elems map[string][]visual.Element
	kv    []string // scratch for one block's keys and values
}

const packSlabLen = 512

func (a *packAlloc) question() *Question {
	if len(a.qslab) == 0 {
		a.qslab = make([]Question, packSlabLen)
	}
	q := &a.qslab[0]
	a.qslab = a.qslab[1:]
	return q
}

func (a *packAlloc) scene() *visual.Scene {
	if len(a.sslab) == 0 {
		a.sslab = make([]visual.Scene, packSlabLen)
	}
	s := &a.sslab[0]
	a.sslab = a.sslab[1:]
	return s
}

func (a *packAlloc) elements(n int) []visual.Element {
	if len(a.eslab) < n {
		a.eslab = make([]visual.Element, max(8*packSlabLen, n))
	}
	w := a.eslab[:n:n]
	a.eslab = a.eslab[n:]
	return w
}

func (a *packAlloc) points(n int) []visual.Point {
	if len(a.pslab) < n {
		a.pslab = make([]visual.Point, max(8*packSlabLen, n))
	}
	w := a.pslab[:n:n]
	a.pslab = a.pslab[n:]
	return w
}

func (a *packAlloc) strings(n int) []string {
	if len(a.strslab) < n {
		a.strslab = make([]string, max(4*packSlabLen, n))
	}
	w := a.strslab[:n:n]
	a.strslab = a.strslab[n:]
	return w
}

// PackReader decodes a pack stream question by question, rebuilding the
// writer's intern table as it goes, so memory stays proportional to one
// record plus the bounded table — never the fold.
type PackReader struct {
	r     *bufio.Reader
	tab   []string
	buf   []byte
	sum   uint32
	read  uint64
	done  bool
	alloc packAlloc
}

// NewPackReader validates the stream header, skips the benchmark name
// and positions the reader at
// the first record.
func NewPackReader(r io.Reader) (*PackReader, error) {
	pr := &PackReader{r: bufio.NewReaderSize(r, 1<<16)}
	magic := make([]byte, len(packMagic))
	if _, err := io.ReadFull(pr.r, magic); err != nil {
		return nil, fmt.Errorf("dataset: pack: reading magic: %w", err)
	}
	if string(magic) != packMagic {
		return nil, fmt.Errorf("dataset: pack: bad magic %q", magic)
	}
	version, err := binary.ReadUvarint(pr.r)
	if err != nil {
		return nil, fmt.Errorf("dataset: pack: reading version: %w", err)
	}
	if version != packVersion {
		return nil, fmt.Errorf("dataset: pack: unsupported version %d (want %d)", version, packVersion)
	}
	nameLen, err := binary.ReadUvarint(pr.r)
	if err != nil {
		return nil, fmt.Errorf("dataset: pack: reading name: %w", err)
	}
	if nameLen > packMaxPayload {
		return nil, fmt.Errorf("dataset: pack: implausible name length %d", nameLen)
	}
	if _, err := io.ReadFull(pr.r, make([]byte, nameLen)); err != nil {
		return nil, fmt.Errorf("dataset: pack: reading name: %w", err)
	}
	return pr, nil
}

// nextPayload returns the next question-record payload (without its
// leading type byte) as a string, folding every record into the
// checksum. 'S' records are applied to the intern table in place and
// skipped. At the end sentinel it verifies the trailer and returns
// io.EOF.
func (pr *PackReader) nextPayload() (string, error) {
	for {
		payloadLen, err := binary.ReadUvarint(pr.r)
		if err != nil {
			return "", fmt.Errorf("dataset: pack: reading frame: %w", err)
		}
		if payloadLen == 0 {
			if err := pr.checkTrailer(); err != nil {
				return "", err
			}
			return "", io.EOF
		}
		if payloadLen > packMaxPayload {
			return "", fmt.Errorf("dataset: pack: implausible record length %d", payloadLen)
		}
		if uint64(cap(pr.buf)) < payloadLen {
			pr.buf = make([]byte, payloadLen)
		}
		pr.buf = pr.buf[:payloadLen]
		if _, err := io.ReadFull(pr.r, pr.buf); err != nil {
			return "", fmt.Errorf("dataset: pack: reading record: %w", err)
		}
		pr.sum = crc32.Update(pr.sum, packCRC, pr.buf)
		switch pr.buf[0] {
		case recString:
			if len(pr.tab) >= internMaxEntries {
				return "", fmt.Errorf("dataset: pack: intern table overflow")
			}
			pr.tab = append(pr.tab, string(pr.buf[1:]))
		case recQuest:
			return string(pr.buf[1:]), nil
		default:
			return "", fmt.Errorf("dataset: pack: unknown record type %#x", pr.buf[0])
		}
	}
}

// Next decodes the next question. It returns io.EOF after the last
// question, once the trailer's count and checksum have verified.
func (pr *PackReader) Next() (*Question, error) {
	if pr.done {
		return nil, io.EOF
	}
	payload, err := pr.nextPayload()
	if err == io.EOF {
		pr.done = true
		return nil, io.EOF
	}
	if err != nil {
		return nil, err
	}
	q, err := decodeQuestion(payload, pr.tab, &pr.alloc)
	if err != nil {
		return nil, err
	}
	pr.read++
	return q, nil
}

func (pr *PackReader) checkTrailer() error {
	count, err := binary.ReadUvarint(pr.r)
	if err != nil {
		return fmt.Errorf("dataset: pack: reading trailer: %w", err)
	}
	if count != pr.read {
		return fmt.Errorf("dataset: pack: trailer count %d, decoded %d", count, pr.read)
	}
	var sum [4]byte
	if _, err := io.ReadFull(pr.r, sum[:]); err != nil {
		return fmt.Errorf("dataset: pack: reading checksum: %w", err)
	}
	if got := binary.LittleEndian.Uint32(sum[:]); got != pr.sum {
		return fmt.Errorf("dataset: pack: checksum mismatch")
	}
	return nil
}

// packDecoder walks one question payload. The payload is a string so
// decoded fields can alias it without copying; pos advances as fields
// are consumed. tab is a read-only intern table — a question record
// never mutates it, which is what makes records decodable in parallel.
type packDecoder struct {
	s     string
	pos   int
	tab   []string
	alloc *packAlloc
}

// uvarint has a fast path for the single-byte varints that almost
// every field of a question record (tags, counts, enums) uses.
func (d *packDecoder) uvarint() (uint64, error) {
	if d.pos < len(d.s) {
		if b := d.s[d.pos]; b < 0x80 {
			d.pos++
			return uint64(b), nil
		}
	}
	return d.uvarintSlow()
}

func (d *packDecoder) uvarintSlow() (uint64, error) {
	// Two bytes is the next most common length: intern-table references
	// past the first 126 entries.
	if p := d.pos; p+1 < len(d.s) && d.s[p] >= 0x80 && d.s[p+1] < 0x80 {
		d.pos = p + 2
		return uint64(d.s[p]&0x7f) | uint64(d.s[p+1])<<7, nil
	}
	var x uint64
	var shift uint
	for i := d.pos; i < len(d.s); i++ {
		b := d.s[i]
		if b < 0x80 {
			if shift > 63 {
				return 0, fmt.Errorf("dataset: pack: varint overflow")
			}
			d.pos = i + 1
			return x | uint64(b)<<shift, nil
		}
		x |= uint64(b&0x7f) << shift
		shift += 7
		if shift > 63 {
			return 0, fmt.Errorf("dataset: pack: varint overflow")
		}
	}
	return 0, fmt.Errorf("dataset: pack: truncated varint")
}

// count reads a collection length and sanity-checks it against the
// remaining payload, where every collection entry costs at least one
// byte — corrupt counts fail here instead of in make().
func (d *packDecoder) count() (int, error) {
	v, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.s)-d.pos) {
		return 0, fmt.Errorf("dataset: pack: count %d exceeds payload", v)
	}
	return int(v), nil
}

func (d *packDecoder) str() (string, error) {
	tag, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if tag >= 2 {
		ref := tag - 2
		if ref >= uint64(len(d.tab)) {
			return "", fmt.Errorf("dataset: pack: intern reference %d out of range", ref)
		}
		return d.tab[ref], nil
	}
	if tag == 1 {
		return "", fmt.Errorf("dataset: pack: intern tag inside question record")
	}
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	if n > uint64(len(d.s)-d.pos) {
		return "", fmt.Errorf("dataset: pack: truncated string")
	}
	s := d.s[d.pos : d.pos+int(n)]
	d.pos += int(n)
	return s, nil
}

func (d *packDecoder) strs() ([]string, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	if n == 0 {
		return nil, nil
	}
	out := d.alloc.strings(n)
	for i := range out {
		if out[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func (d *packDecoder) float() (float64, error) {
	if len(d.s)-d.pos < 8 {
		return 0, fmt.Errorf("dataset: pack: truncated float")
	}
	s := d.s[d.pos : d.pos+8]
	v := uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
	d.pos += 8
	return math.Float64frombits(v), nil
}

func (d *packDecoder) boolByte() (bool, error) {
	if len(d.s)-d.pos < 1 {
		return false, fmt.Errorf("dataset: pack: truncated bool")
	}
	b := d.s[d.pos]
	d.pos++
	if b > 1 {
		return false, fmt.Errorf("dataset: pack: bad bool byte %d", b)
	}
	return b == 1, nil
}

// attrBlock decodes one attribute block of na pairs whose count varint
// began at mark, returning a map shared with every other element whose
// encoded block is byte-identical (see packAlloc.attrs). Callers must
// treat decoded attribute maps as read-only — the same contract decoded
// questions already carry when shared across evaluation workers.
func (d *packDecoder) attrBlock(mark, na int) (map[string]string, error) {
	if cap(d.alloc.kv) < 2*na {
		d.alloc.kv = make([]string, 2*na)
	}
	kv := d.alloc.kv[:2*na]
	var err error
	for j := range kv {
		if kv[j], err = d.str(); err != nil {
			return nil, err
		}
	}
	block := d.s[mark:d.pos]
	if m, ok := d.alloc.attrs[block]; ok {
		return m, nil
	}
	m := make(map[string]string, na)
	for j := 0; j < 2*na; j += 2 {
		m[kv[j]] = kv[j+1]
	}
	if d.alloc.attrs == nil {
		d.alloc.attrs = make(map[string]map[string]string)
	}
	d.alloc.attrs[block] = m
	return m, nil
}

func (d *packDecoder) scene() (*visual.Scene, error) {
	kind, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	s := d.alloc.scene()
	s.Kind = visual.Kind(kind)
	if s.Title, err = d.str(); err != nil {
		return nil, err
	}
	w, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	h, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	s.Width, s.Height = int(w), int(h)
	// The element section is the last field of a question record, so
	// the rest of the payload is the section's raw bytes: a section seen
	// before is recognised, and shared, before any of it is parsed. A
	// record with trailing bytes fails in decodeQuestion either way.
	mark := d.pos
	if shared, ok := d.alloc.elems[d.s[mark:]]; ok {
		s.Elements = shared
		d.pos = len(d.s)
		return s, nil
	}
	ne, err := d.count()
	if err != nil {
		return nil, err
	}
	if ne > 0 {
		if s.Elements, err = d.elementBlock(mark, ne); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// elementBlock decodes one scene's element section of ne elements whose
// count varint began at mark, and records it so later scenes whose
// encoded sections are byte-identical share the window read-only (see
// packAlloc.elems).
func (d *packDecoder) elementBlock(mark, ne int) ([]visual.Element, error) {
	w := d.alloc.elements(ne)
	for i := 0; i < ne; i++ {
		e := &w[i]
		typ, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		e.Type = visual.ElementType(typ)
		if e.Name, err = d.str(); err != nil {
			return nil, err
		}
		if e.Label, err = d.str(); err != nil {
			return nil, err
		}
		if e.X, err = d.float(); err != nil {
			return nil, err
		}
		if e.Y, err = d.float(); err != nil {
			return nil, err
		}
		if e.X2, err = d.float(); err != nil {
			return nil, err
		}
		if e.Y2, err = d.float(); err != nil {
			return nil, err
		}
		np, err := d.count()
		if err != nil {
			return nil, err
		}
		if np > 0 {
			e.Points = d.alloc.points(np)
		}
		for j := range e.Points {
			if e.Points[j].X, err = d.float(); err != nil {
				return nil, err
			}
			if e.Points[j].Y, err = d.float(); err != nil {
				return nil, err
			}
		}
		amark := d.pos
		na, err := d.count()
		if err != nil {
			return nil, err
		}
		if na > 0 {
			if e.Attrs, err = d.attrBlock(amark, na); err != nil {
				return nil, err
			}
		}
		if e.Salience, err = d.float(); err != nil {
			return nil, err
		}
		if e.Critical, err = d.boolByte(); err != nil {
			return nil, err
		}
	}
	if d.alloc.elems == nil {
		d.alloc.elems = make(map[string][]visual.Element)
	}
	d.alloc.elems[d.s[mark:d.pos]] = w
	return w, nil
}

// decodeQuestion decodes one question payload (without its leading
// record-type byte) against a read-only intern table.
func decodeQuestion(payload string, tab []string, alloc *packAlloc) (*Question, error) {
	d := packDecoder{s: payload, tab: tab, alloc: alloc}
	q := alloc.question()
	var err error
	if q.ID, err = d.str(); err != nil {
		return nil, err
	}
	cat, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	q.Category = Category(cat)
	typ, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	q.Type = QType(typ)
	if q.Topic, err = d.str(); err != nil {
		return nil, err
	}
	if q.Prompt, err = d.str(); err != nil {
		return nil, err
	}
	if q.Choices, err = d.strs(); err != nil {
		return nil, err
	}
	kind, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	q.Golden.Kind = AnswerKind(kind)
	choice, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	q.Golden.Choice = int(choice)
	if q.Golden.Number, err = d.float(); err != nil {
		return nil, err
	}
	if q.Golden.Unit, err = d.str(); err != nil {
		return nil, err
	}
	if q.Golden.Tolerance, err = d.float(); err != nil {
		return nil, err
	}
	if q.Golden.Text, err = d.str(); err != nil {
		return nil, err
	}
	if q.Golden.Accept, err = d.strs(); err != nil {
		return nil, err
	}
	if q.Challenge, err = d.boolByte(); err != nil {
		return nil, err
	}
	if q.Difficulty, err = d.float(); err != nil {
		return nil, err
	}
	hasScene, err := d.boolByte()
	if err != nil {
		return nil, err
	}
	if hasScene {
		if q.Visual, err = d.scene(); err != nil {
			return nil, err
		}
	}
	if d.pos != len(d.s) {
		return nil, fmt.Errorf("dataset: pack: %s: %d trailing bytes in record", q.ID, len(d.s)-d.pos)
	}
	if err := q.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: pack: %w", err)
	}
	return q, nil
}

// WritePack serialises a whole benchmark to w in pack format.
func WritePack(w io.Writer, b *Benchmark) error {
	pw := NewPackWriter(w, b.Name)
	for _, q := range b.Questions {
		if err := pw.WriteQuestion(q); err != nil {
			return err
		}
	}
	return pw.Close()
}

// ReadPack loads a whole benchmark previously written in pack format.
//
// Unlike StreamPack it buffers the entire stream: the result holds
// every question anyway, and decoding against one contiguous buffer is
// what lets inline strings alias the image instead of being copied
// record by record. The frame scan verifies the trailer first, then
// question records — which never mutate the intern table — decode on
// one goroutine per CPU, partitioned by index range so the result is
// identical regardless of parallelism.
//
//lint:ignore unreachable called only by tests (internal/core's TestPackRoundTripByteIdentical) and BenchmarkReadPack10k
func ReadPack(r io.Reader) (*Benchmark, error) {
	data, err := slurp(r)
	if err != nil {
		return nil, fmt.Errorf("dataset: pack: reading stream: %w", err)
	}
	// No one else holds slurp's buffer, so the image views it in place.
	return parsePack(unsafe.String(unsafe.SliceData(data), len(data)), runtime.GOMAXPROCS(0))
}

// ReadPackBytes decodes a pack image already held in memory — the
// fastest cold-load path when the caller has the file bytes (e.g. from
// os.ReadFile), since it skips the stream read ReadPack must make. It
// copies data once, so the caller may reuse it afterwards.
func ReadPackBytes(data []byte) (*Benchmark, error) {
	return parsePack(string(data), runtime.GOMAXPROCS(0))
}

// slurp reads r to EOF, sizing the buffer up front when the reader can
// report its length — io.ReadAll's doubling growth would copy a large
// pack several times over.
func slurp(r io.Reader) ([]byte, error) {
	if sized, ok := r.(interface{ Len() int }); ok {
		data := make([]byte, sized.Len())
		if _, err := io.ReadFull(r, data); err != nil {
			return nil, err
		}
		return data, nil
	}
	return io.ReadAll(r)
}

// parsePack decodes a whole pack image with the given decode
// parallelism (workers <= 1 means sequential). Every inline string and
// table entry of the result aliases img.
func parsePack(img string, workers int) (*Benchmark, error) {
	data := unsafe.Slice(unsafe.StringData(img), len(img)) // read-only, for the checksum
	pos := 0
	if len(img) < len(packMagic) || img[:len(packMagic)] != packMagic {
		return nil, fmt.Errorf("dataset: pack: bad magic %q", img[:min(len(img), len(packMagic))])
	}
	pos = len(packMagic)
	sd := packDecoder{s: img, pos: pos}
	version, err := sd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("dataset: pack: reading version: %w", err)
	}
	if version != packVersion {
		return nil, fmt.Errorf("dataset: pack: unsupported version %d (want %d)", version, packVersion)
	}
	nameLen, err := sd.count()
	if err != nil {
		return nil, fmt.Errorf("dataset: pack: reading name: %w", err)
	}
	b := &Benchmark{Name: img[sd.pos : sd.pos+nameLen]}
	sd.pos += nameLen

	// Pass 1: frame scan. Builds the intern table, records question
	// payload spans, and verifies count and checksum before any
	// question decodes.
	var tab []string
	type span struct{ lo, hi int }
	var spans []span
	var sum uint32
	for {
		n, err := sd.uvarint()
		if err != nil {
			return nil, fmt.Errorf("dataset: pack: reading frame: %w", err)
		}
		if n == 0 {
			break
		}
		if n > packMaxPayload {
			return nil, fmt.Errorf("dataset: pack: implausible record length %d", n)
		}
		if n > uint64(len(img)-sd.pos) {
			return nil, fmt.Errorf("dataset: pack: truncated record")
		}
		lo, hi := sd.pos, sd.pos+int(n)
		sd.pos = hi
		sum = crc32.Update(sum, packCRC, data[lo:hi])
		switch img[lo] {
		case recString:
			if len(tab) >= internMaxEntries {
				return nil, fmt.Errorf("dataset: pack: intern table overflow")
			}
			tab = append(tab, img[lo+1:hi])
		case recQuest:
			spans = append(spans, span{lo + 1, hi})
		default:
			return nil, fmt.Errorf("dataset: pack: unknown record type %#x", img[lo])
		}
	}
	count, err := sd.uvarint()
	if err != nil {
		return nil, fmt.Errorf("dataset: pack: reading trailer: %w", err)
	}
	if count != uint64(len(spans)) {
		return nil, fmt.Errorf("dataset: pack: trailer count %d, decoded %d", count, len(spans))
	}
	if len(img)-sd.pos < 4 {
		return nil, fmt.Errorf("dataset: pack: reading checksum: unexpected EOF")
	}
	if got := binary.LittleEndian.Uint32(data[sd.pos:]); got != sum {
		return nil, fmt.Errorf("dataset: pack: checksum mismatch")
	}
	if sd.pos+4 != len(img) {
		return nil, fmt.Errorf("dataset: pack: %d trailing bytes after trailer", len(img)-sd.pos-4)
	}

	// Pass 2: decode question records.
	b.Questions = make([]*Question, len(spans))
	if workers > len(spans) {
		workers = len(spans)
	}
	if workers <= 1 {
		var alloc packAlloc
		for i, sp := range spans {
			if b.Questions[i], err = decodeQuestion(img[sp.lo:sp.hi], tab, &alloc); err != nil {
				return nil, err
			}
		}
		return b, nil
	}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := len(spans)*w/workers, len(spans)*(w+1)/workers
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var alloc packAlloc
			for i := lo; i < hi; i++ {
				sp := spans[i]
				q, err := decodeQuestion(img[sp.lo:sp.hi], tab, &alloc)
				if err != nil {
					errs[w] = err
					return
				}
				b.Questions[i] = q
			}
		}(w, lo, hi)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return b, nil
}

// StreamPack reads a pack stream and delivers it as shards of at most
// shardSize questions, mirroring core.StreamExtended's delivery
// contract: shards arrive in order on the calling goroutine and the
// Questions slice must not be retained after yield returns. Unlike
// ReadPack it reads and decodes incrementally — peak memory stays
// bounded by one shard plus the intern table, which is the point of
// streaming.
func StreamPack(r io.Reader, shardSize int, yield func(Shard) error) error {
	if shardSize <= 0 {
		return fmt.Errorf("dataset: pack: shardSize must be positive, got %d", shardSize)
	}
	if yield == nil {
		return fmt.Errorf("dataset: pack: StreamPack requires a yield callback")
	}
	pr, err := NewPackReader(r)
	if err != nil {
		return err
	}
	qs := make([]*Question, 0, shardSize)
	start, idx := 0, 0
	flush := func() error {
		if len(qs) == 0 {
			return nil
		}
		if err := yield(Shard{Index: idx, Start: start, Questions: qs}); err != nil {
			return err
		}
		start += len(qs)
		idx++
		qs = qs[:0]
		return nil
	}
	for {
		q, err := pr.Next()
		if err == io.EOF {
			return flush()
		}
		if err != nil {
			return err
		}
		qs = append(qs, q)
		if len(qs) == shardSize {
			if err := flush(); err != nil {
				return err
			}
		}
	}
}
