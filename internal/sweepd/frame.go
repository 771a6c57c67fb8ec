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

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"sync"

	"smtsim"
)

// frameType is the stream's Content-Type, and the Accept value with
// which a POST /v1/sweep asks for the stream instead of the JSON
// summary. A format change needs a new value, so that a client and a
// server of different versions fail with a clear error.
const frameType = "application/x-sweepd-frames"

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

// readFrame reads and decodes the next frame of r. buf is scratch
// space for the frame's bytes; readFrame returns it, grown if needed,
// for the next call. At a clean end of stream it returns io.EOF.
func readFrame(r io.Reader, buf []byte) (cellLine, []byte, error) {
	buf = append(buf[:0], 0, 0, 0, 0)
	if _, err := io.ReadFull(r, buf); err != nil {
		return cellLine{}, buf, err
	}
	n := binary.LittleEndian.Uint32(buf)
	if n == 0 || n > maxFrameBody {
		return cellLine{}, buf, fmt.Errorf("%w: body of %d bytes", errFrame, n)
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
		return cellLine{}, buf, err
	}
	body := buf[4 : 4+n]
	if got, want := crc32.Checksum(buf[:4+n], castagnoli()), binary.LittleEndian.Uint32(buf[4+n:]); got != want {
		return cellLine{}, buf, fmt.Errorf("%w: CRC-32C %08x, want %08x", errFrame, got, want)
	}
	d := decoder{b: body[1:]}
	var l cellLine
	switch body[0] {
	case frameDone:
		l.Done = true
		l.Total = d.int()
	case frameError:
		l.Index = d.int()
		l.Hash = d.hash()
		l.Error = d.string()
		if l.Error == "" {
			d.fail()
		}
	case frameResult:
		l.Index = d.int()
		l.Hash = d.hash()
		l.Result = d.result()
	default:
		return cellLine{}, buf, fmt.Errorf("%w: kind %#x", errFrame, body[0])
	}
	if d.err || len(d.b) != 0 {
		return cellLine{}, buf, fmt.Errorf("%w: kind %q", errFrame, body[0])
	}
	return l, buf, nil
}

// decoder reads fields from a frame body. A field that runs past the
// body, or does not fit its type, sets err; later reads return zeros.
type decoder struct {
	b   []byte
	err bool
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
	return string(d.bytes(d.uvarint()))
}

func (d *decoder) hash() string {
	p := d.bytes(sha256.Size)
	if p == nil {
		return ""
	}
	var h [2 * sha256.Size]byte
	hex.Encode(h[:], p)
	return string(h[:])
}

// minThreadBytes is the smallest encoding of a ThreadResult: an empty
// name, a one-byte count and two floats.
const minThreadBytes = 1 + 1 + 8 + 8

func (d *decoder) result() *smtsim.Result {
	r := new(smtsim.Result)
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
			t.Benchmark = d.string()
			t.Committed = d.uvarint()
			t.IPC = d.float()
			t.MispredictRate = d.float()
		}
	}
	return r
}
