package sweepd

// The result stream's wire format. A stream is a sequence of frames,
// one per landed cell in landing order, then one done frame. A frame is
//
//	length uint32   number of body bytes, at most maxFrameBody
//	body   kind byte, then the kind's fields
//	crc    uint32   CRC-32C of length and body
//
// with fixed-width integers little-endian. The kinds are:
//
//	frameResult  index, hash, result
//	frameError   index, hash, message
//	frameDone    total
//
// An index, count or uint64 is a uvarint, a signed integer a varint, a
// float64 its 8 IEEE-754 bytes (so -0.0 and NaN survive), a string a
// uvarint length and its bytes, and a hash its 32 raw SHA-256 bytes. A
// result writes every smtsim.Result field: Cycles and Comparators, the
// uint64s and the float64s in the order resultFields lists them, then
// each ThreadResult in declaration order. Adding a field to either
// changes the format, and TestFrameRoundTrip fails until the codec
// writes it.
//
// A request body of Content-Type specType carries a batch's specs in
// the same encodings:
//
//	count  uvarint
//	specs  count specs, each cellstore.Spec's fields in declaration
//	       order: the benchmark list as a count and its strings, the
//	       scheduler, IQ size (varint), fetch gate, memory latency
//	       (varint), budget, warmup and seed
//	crc    uint32   CRC-32C of count and specs
//
// Adding a Spec field changes the format, and TestSpecsRoundTrip fails
// until the codec writes it.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"smtsim"
	"smtsim/internal/cellstore"
)

// frameType is the stream's Content-Type, and the Accept value with
// which a POST /v1/sweep asks for the stream instead of the JSON
// summary. A format change needs a new value, so that a client and a
// server of different versions fail with a clear error.
const frameType = "application/x-sweepd-frames"

// specType is the Content-Type of a binary request body. A POST with
// any other Content-Type is decoded as JSON.
const specType = "application/x-sweepd-specs"

// Frame kinds.
const (
	frameResult byte = 'r'
	frameError  byte = 'e'
	frameDone   byte = 'd'
)

// maxFrameBody bounds one frame's body: the client reads at most 1 MiB
// per cell.
const maxFrameBody = 1 << 20

// castagnoli builds the CRC-32C tables on first use: about 0.24 ms,
// which a process that never streams should not pay at start-up.
var castagnoli = sync.OnceValue(func() *crc32.Table { return crc32.MakeTable(crc32.Castagnoli) })

var errFrame = errors.New("malformed frame")

// appendFrame appends l's frame to b. l.Hash must be a Spec.Key hash.
func appendFrame(b []byte, l cellLine) []byte {
	start := len(b)
	b = append(b, 0, 0, 0, 0) // length, filled in below
	switch {
	case l.Done:
		b = append(b, frameDone)
		b = binary.AppendUvarint(b, uint64(l.Total))
	case l.Result == nil:
		b = append(b, frameError)
		b = binary.AppendUvarint(b, uint64(l.Index))
		b = appendHash(b, l.Hash)
		b = appendString(b, l.Error)
	default:
		b = append(b, frameResult)
		b = binary.AppendUvarint(b, uint64(l.Index))
		b = appendHash(b, l.Hash)
		b = appendResult(b, l.Result)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(len(b)-start-4))
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli()))
}

// resultFields lists a Result's uint64 and float64 fields in frame
// order, for the encoder and the decoder alike.
func resultFields(r *smtsim.Result) ([6]*uint64, [13]*float64) {
	uints := [...]*uint64{
		&r.Committed, &r.HDIDispatched, &r.DABInserts, &r.WatchdogFlushes, &r.GateFlushes, &r.MSHRStallEvents,
	}
	floats := [...]*float64{
		&r.IPC, &r.DispatchStallAllNDI, &r.DispatchStallNDIWeak, &r.DispatchStallAllAny,
		&r.IQResidency, &r.IQOccupancy, &r.HDIPiledFrac, &r.HDIDepOnNDIFrac,
		&r.SchedulerEnergyPerInst, &r.SchedulerEDP, &r.L1DMissRate, &r.L2MissRate, &r.L1IMissRate,
	}
	return uints, floats
}

func appendResult(b []byte, r *smtsim.Result) []byte {
	b = binary.AppendVarint(b, r.Cycles)
	b = binary.AppendVarint(b, int64(r.Comparators))
	uints, floats := resultFields(r)
	for _, u := range uints {
		b = binary.AppendUvarint(b, *u)
	}
	for _, f := range floats {
		b = appendFloat(b, *f)
	}
	b = binary.AppendUvarint(b, uint64(len(r.Threads)))
	for _, t := range r.Threads {
		b = appendString(b, t.Benchmark)
		b = binary.AppendUvarint(b, t.Committed)
		b = appendFloat(b, t.IPC)
		b = appendFloat(b, t.MispredictRate)
	}
	return b
}

func appendFloat(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendHash appends the 32 bytes a lowercase hex Spec.Key spells.
func appendHash(b []byte, hash string) []byte {
	for i := 0; i < 2*sha256.Size; i += 2 {
		b = append(b, unhex(hash[i])<<4|unhex(hash[i+1]))
	}
	return b
}

func unhex(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

// frameHead is a decoded frame without its result, which readFrame
// decodes in place.
type frameHead struct {
	kind  byte
	index int // result and error frames
	hash  [sha256.Size]byte
	err   string // error frames
	total int    // done frames
}

// readFrame reads and decodes the next frame of r. A result frame's
// result is decoded into the Result into returns for its index; names
// lends each thread's Benchmark string when the decoded name equals
// names[thread]. buf is scratch space for the frame's bytes; readFrame
// returns it, grown if needed, for the next call. At a clean end of
// stream it returns io.EOF.
func readFrame(r io.Reader, buf []byte, into func(index int) (dst *smtsim.Result, names []string)) (frameHead, []byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return frameHead{}, buf, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n == 0 || n > maxFrameBody {
		return frameHead{}, buf, fmt.Errorf("%w: body of %d bytes", errFrame, n)
	}
	total := 4 + int(n) + 4
	if cap(buf) < total {
		buf = append(buf, make([]byte, total-len(buf))...)
	}
	buf = buf[:total]
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		if errors.Is(err, io.EOF) {
			err = io.ErrUnexpectedEOF
		}
		return frameHead{}, buf, err
	}
	body := buf[4 : 4+n]
	if got, want := crc32.Checksum(buf[:4+n], castagnoli()), binary.LittleEndian.Uint32(buf[4+n:]); got != want {
		return frameHead{}, buf, fmt.Errorf("%w: CRC-32C %08x, want %08x", errFrame, got, want)
	}
	d := decoder{b: body[1:]}
	h := frameHead{kind: body[0]}
	switch h.kind {
	case frameDone:
		h.total = d.int()
	case frameError:
		h.index = d.int()
		d.hash(&h.hash)
		if h.err = d.string(); h.err == "" {
			d.fail()
		}
	case frameResult:
		h.index = d.int()
		d.hash(&h.hash)
		if !d.err {
			d.result(into(h.index))
		}
	default:
		return frameHead{}, buf, fmt.Errorf("%w: kind %#x", errFrame, h.kind)
	}
	if d.err || len(d.b) != 0 {
		return frameHead{}, buf, fmt.Errorf("%w: kind %q", errFrame, h.kind)
	}
	return h, buf, nil
}

// appendSpecs appends the specType body that carries specs.
func appendSpecs(b []byte, specs []cellstore.Spec) []byte {
	start := len(b)
	b = binary.AppendUvarint(b, uint64(len(specs)))
	for i := range specs {
		s := &specs[i]
		b = binary.AppendUvarint(b, uint64(len(s.Benchmarks)))
		for _, name := range s.Benchmarks {
			b = appendString(b, name)
		}
		b = appendString(b, s.Scheduler)
		b = binary.AppendVarint(b, int64(s.IQSize))
		b = appendString(b, s.FetchGate)
		b = binary.AppendVarint(b, int64(s.MemoryLatency))
		b = binary.AppendUvarint(b, s.Budget)
		b = binary.AppendUvarint(b, s.Warmup)
		b = binary.AppendUvarint(b, s.Seed)
	}
	return binary.LittleEndian.AppendUint32(b, crc32.Checksum(b[start:], castagnoli()))
}

// specBytesHint and frameBytesHint size encode buffers: a report cell
// with four benchmarks takes about 60 bytes as a spec and 250 as a
// result frame.
const (
	specBytesHint  = 64
	frameBytesHint = 256
)

// minSpecBytes is the smallest encoding of a Spec: a one-byte field
// each.
const minSpecBytes = 8

// decodeSpecs decodes a specType body. A string that repeats within
// the body is allocated once, and the benchmark lists share one backing
// array, each capped at its own length.
func decodeSpecs(body []byte) ([]cellstore.Spec, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("spec body of %d bytes", len(body))
	}
	n := len(body) - 4
	if got, want := crc32.Checksum(body[:n], castagnoli()), binary.LittleEndian.Uint32(body[n:]); got != want {
		return nil, fmt.Errorf("spec body CRC-32C %08x, want %08x", got, want)
	}
	d := decoder{b: body[:n], strs: make(map[string]string)}
	count := d.uvarint()
	if count > uint64(len(d.b)/minSpecBytes) {
		return nil, fmt.Errorf("spec count %d exceeds the body", count)
	}
	specs := make([]cellstore.Spec, count)
	names := make([]string, 0, count) // a valid spec has a name or more
	for i := range specs {
		s := &specs[i]
		k := d.uvarint()
		if k > uint64(len(d.b)) {
			d.fail()
			break
		}
		first := len(names)
		for j := uint64(0); j < k; j++ {
			names = append(names, d.string())
		}
		s.Benchmarks = names[first:len(names):len(names)]
		s.Scheduler = d.string()
		s.IQSize = d.sint()
		s.FetchGate = d.string()
		s.MemoryLatency = d.sint()
		s.Budget = d.uvarint()
		s.Warmup = d.uvarint()
		s.Seed = d.uvarint()
	}
	if d.err || len(d.b) != 0 {
		return nil, errors.New("malformed spec body")
	}
	return specs, nil
}

// decoder reads fields from a frame or spec body. A field that runs
// past the body, or does not fit its type, sets err; later reads return
// zeros. With strs non-nil, string returns one string per distinct
// value.
type decoder struct {
	b    []byte
	err  bool
	strs map[string]string
}

func (d *decoder) fail() {
	d.err = true
	d.b = nil
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// int reads a uvarint that must fit an int32, and so an int anywhere.
func (d *decoder) int() int {
	v := d.uvarint()
	if v > math.MaxInt32 {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// sint reads a varint that must fit an int32.
func (d *decoder) sint() int {
	v := d.varint()
	if v < math.MinInt32 || v > math.MaxInt32 {
		d.fail()
		return 0
	}
	return int(v)
}

func (d *decoder) bytes(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail()
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *decoder) float() float64 {
	p := d.bytes(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func (d *decoder) string() string {
	p := d.bytes(d.uvarint())
	if d.strs == nil {
		return string(p)
	}
	if s, ok := d.strs[string(p)]; ok {
		return s
	}
	s := string(p)
	d.strs[s] = s
	return s
}

// stringLike is string, except that it returns like itself when the
// field equals it.
func (d *decoder) stringLike(like string) string {
	p := d.bytes(d.uvarint())
	if string(p) == like {
		return like
	}
	return string(p)
}

func (d *decoder) hash(h *[sha256.Size]byte) {
	copy(h[:], d.bytes(sha256.Size))
}

// minThreadBytes is the smallest encoding of a ThreadResult: an empty
// name, a one-byte count and two floats.
const minThreadBytes = 1 + 1 + 8 + 8

// result decodes a result into r, overwriting every field. Thread i's
// Benchmark is names[i] when the two are equal.
func (d *decoder) result(r *smtsim.Result, names []string) {
	*r = smtsim.Result{}
	r.Cycles = d.varint()
	if c := d.varint(); c < math.MinInt32 || c > math.MaxInt32 {
		d.fail()
	} else {
		r.Comparators = int(c)
	}
	uints, floats := resultFields(r)
	for _, u := range uints {
		*u = d.uvarint()
	}
	for _, f := range floats {
		*f = d.float()
	}
	if n := d.uvarint(); n > uint64(len(d.b)/minThreadBytes) {
		d.fail()
	} else if n > 0 {
		r.Threads = make([]smtsim.ThreadResult, n)
		for i := range r.Threads {
			t := &r.Threads[i]
			if i < len(names) {
				t.Benchmark = d.stringLike(names[i])
			} else {
				t.Benchmark = d.string()
			}
			t.Committed = d.uvarint()
			t.IPC = d.float()
			t.MispredictRate = d.float()
		}
	}
}
