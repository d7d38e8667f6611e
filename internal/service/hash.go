package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"

	"elpc/internal/model"
)

// hashVersion is folded into every canonical hash so the key space can be
// invalidated wholesale if the serialization or the cost model ever changes.
const hashVersion = "elpc-problem-v2"

// hashBufSize is the canonical encoder's staging buffer: a multiple of the
// SHA-256 block size, large enough that the per-Write overhead vanishes.
const hashBufSize = 4096

// Hash returns the canonical hash (hex SHA-256) of the problem instance:
// network, pipeline, endpoints, and cost options. Mappers are deterministic
// functions of exactly these inputs, so the hash is a sound solution-cache
// key for every objective.
//
// The hashed bytes are the elpc-problem-v2 encoding, streamed into SHA-256
// in one pass. Integers are 8-byte little-endian (int64 for IDs and
// endpoints, uint64 for counts and lengths), a float is its
// math.Float64bits, and a string is its length followed by its bytes:
//
//	version  string "elpc-problem-v2"
//	nodes    count, then per node: id, name, power
//	links    count, then per link: id, from, to, bw_mbps, mld_ms
//	modules  count, then per module: id, name, complexity, in_bytes, out_bytes
//	src, dst, then one byte for Cost.IncludeMLDInDelay (0 or 1)
//
// Every variable-length part is length-prefixed, so distinct problems
// encode to distinct bytes. A NaN or infinite float is an error, since no
// valid problem holds one.
func Hash(p *model.Problem) (string, error) {
	if p == nil || p.Net == nil || p.Pipe == nil {
		return "", fmt.Errorf("service: hash of incomplete problem")
	}
	e := canonicalEncoder{h: sha256.New(), buf: make([]byte, 0, hashBufSize)}
	e.str(hashVersion)
	e.uint(uint64(len(p.Net.Nodes)))
	for _, n := range p.Net.Nodes {
		e.int(int64(n.ID))
		e.str(n.Name)
		e.float(n.Power)
	}
	e.uint(uint64(len(p.Net.Links)))
	for _, l := range p.Net.Links {
		e.int(int64(l.ID))
		e.int(int64(l.From))
		e.int(int64(l.To))
		e.float(l.BWMbps)
		e.float(l.MLDms)
	}
	e.uint(uint64(len(p.Pipe.Modules)))
	for _, m := range p.Pipe.Modules {
		e.int(int64(m.ID))
		e.str(m.Name)
		e.float(m.Complexity)
		e.float(m.InBytes)
		e.float(m.OutBytes)
	}
	e.int(int64(p.Src))
	e.int(int64(p.Dst))
	flag := uint8(0)
	if p.Cost.IncludeMLDInDelay {
		flag = 1
	}
	e.room(1)
	e.buf = append(e.buf, flag)
	if e.err != nil {
		return "", e.err
	}
	e.flush()
	// The digest and its hex form reuse the (flushed) staging buffer.
	sum := e.h.Sum(e.buf[:0])
	hexed := hex.AppendEncode(sum[len(sum):], sum)
	return string(hexed), nil
}

// canonicalEncoder stages fixed-width fields in buf and hands them to the
// hash a buffer at a time. Floats are checked as they pass; err keeps the
// first non-finite one, and Hash reports it once the whole problem is
// written.
type canonicalEncoder struct {
	h   hash.Hash
	buf []byte
	err error
}

// room flushes the buffer unless n more bytes fit.
func (e *canonicalEncoder) room(n int) {
	if len(e.buf)+n > cap(e.buf) {
		e.flush()
	}
}

func (e *canonicalEncoder) flush() {
	e.h.Write(e.buf) // hash.Hash.Write never returns an error
	e.buf = e.buf[:0]
}

func (e *canonicalEncoder) uint(v uint64) {
	e.room(8)
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
}

func (e *canonicalEncoder) int(v int64) { e.uint(uint64(v)) }

func (e *canonicalEncoder) float(v float64) {
	if e.err == nil && (math.IsNaN(v) || math.IsInf(v, 0)) {
		e.err = fmt.Errorf("service: canonical serialization: non-finite value %v", v)
	}
	e.uint(math.Float64bits(v))
}

func (e *canonicalEncoder) str(s string) {
	e.uint(uint64(len(s)))
	for len(s) > 0 {
		if len(e.buf) == cap(e.buf) {
			e.flush()
		}
		n := copy(e.buf[len(e.buf):cap(e.buf)], s)
		e.buf = e.buf[:len(e.buf)+n]
		s = s[n:]
	}
}
