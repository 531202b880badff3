package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"sync/atomic"
	"time"

	"s3fifo/internal/faultfs"
	"s3fifo/internal/proto"
)

// Tracing records spans around the calls the benchmark makes into each
// layer, plus the server's connection I/O and the flash tier's file
// operations seen through the program's public seams (net.Listener and
// faultfs.FS). Spans stay in a preallocated buffer and are written out
// when the run ends; a nil *tracer records nothing.

type spanKind uint8

const (
	spanRequest   spanKind = iota // one workload request, due (or send) time to completion
	spanClientGet                 // call into the client (or the text client)
	spanClientSet
	spanCacheGet // direct call into the cache facade
	spanCacheSet
	spanCacheDelete
	spanServerBusy  // server connection: data read until the next Read call
	spanServerWrite // server connection Write
	spanFSWrite     // flash tier file operations
	spanFSRead
	spanFSSync
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"request", "client.get", "client.set", "cache.get", "cache.set", "cache.delete",
	"server.busy", "server.write", "fs.write", "fs.read", "fs.sync",
}

type span struct {
	start, end int64 // ns since the tracer started
	parent     int32 // index of the enclosing span, -1 for none
	id         uint32
	conn       uint16
	kind       spanKind
}

type tracer struct {
	t0      time.Time
	every   uint64 // requests are traced 1 in every; server and file spans all
	spans   []span
	n       atomic.Int64
	dropped atomic.Int64
}

func newTracer(capacity int, every uint64) *tracer {
	return &tracer{t0: time.Now(), every: every, spans: make([]span, capacity)}
}

// sampled reports whether the request with sequence seq is traced.
func (t *tracer) sampled(seq uint64) bool { return t != nil && seq%t.every == 0 }

// begin opens a span and returns its index, or -1 when not recorded.
func (t *tracer) begin(kind spanKind, parent int32, conn uint16, id uint32) int32 {
	if t == nil {
		return -1
	}
	i := t.n.Add(1) - 1
	if i >= int64(len(t.spans)) {
		t.dropped.Add(1)
		return -1
	}
	t.spans[i] = span{start: int64(time.Since(t.t0)), parent: parent, id: id, conn: conn, kind: kind}
	return int32(i)
}

// beginAt opens a span that started at an earlier time, such as a
// request's due time.
func (t *tracer) beginAt(at time.Time, kind spanKind, conn uint16, id uint32) int32 {
	i := t.begin(kind, -1, conn, id)
	if i >= 0 {
		t.spans[i].start = int64(at.Sub(t.t0))
	}
	return i
}

func (t *tracer) end(i int32) {
	if i >= 0 {
		t.spans[i].end = int64(time.Since(t.t0))
	}
}

// mark returns the index the next span will get; layerTimes(a, b) covers
// the spans begun between marks a and b.
func (t *tracer) mark() int { return len(t.recorded()) }

// recorded returns the spans recorded so far. Call it only once every
// goroutine that records has stopped.
func (t *tracer) recorded() []span {
	n := t.n.Load()
	if n > int64(len(t.spans)) {
		n = int64(len(t.spans))
	}
	return t.spans[:n]
}

// layerTimes sums, per span kind, the spans' durations and their self
// time: duration minus the time covered by child spans. File operation
// spans carry no parent link (the tier runs them on the server's
// goroutine, out of the benchmark's reach); they are attributed to the
// server.busy span of the same time on the connection whose busy span
// contains them.
type layerTimes struct {
	count [numSpanKinds]int64
	total [numSpanKinds]int64
	self  [numSpanKinds]int64
}

func (t *tracer) layerTimes(from, to int) layerTimes {
	spans := t.recorded()[:to]
	var lt layerTimes
	child := make([]int64, len(spans))
	busy := make([]int32, 0)
	for i := from; i < len(spans); i++ {
		if spans[i].kind == spanServerBusy && spans[i].end > 0 {
			busy = append(busy, int32(i))
		}
	}
	for _, s := range spans[from:] {
		if s.end == 0 {
			continue // still open when the phase ended
		}
		p := s.parent
		if p < 0 && (s.kind == spanFSWrite || s.kind == spanFSRead || s.kind == spanFSSync) {
			p = containing(spans, busy, s)
		}
		if p >= 0 {
			child[p] += s.end - s.start
		}
	}
	for i := from; i < len(spans); i++ {
		s := spans[i]
		if s.end == 0 {
			continue
		}
		d := s.end - s.start
		lt.count[s.kind]++
		lt.total[s.kind] += d
		lt.self[s.kind] += d - child[i]
	}
	return lt
}

// containing returns the busy span that encloses s, or -1. busy is in
// start order because spans are appended as they begin.
func containing(spans []span, busy []int32, s span) int32 {
	lo, hi := 0, len(busy)
	for lo < hi { // first busy span starting after s
		m := (lo + hi) / 2
		if spans[busy[m]].start <= s.start {
			lo = m + 1
		} else {
			hi = m
		}
	}
	// Busy spans of different connections interleave; look back a few.
	for k := lo - 1; k >= 0 && k >= lo-8; k-- {
		b := spans[busy[k]]
		if b.start <= s.start && s.end <= b.end {
			return busy[k]
		}
	}
	return -1
}

// writeSpans writes the spans begun between marks from and to as one
// JSON object per line.
func (t *tracer) writeSpans(path string, from, to int) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<16)
	spans := t.recorded()
	for i := from; i < to; i++ {
		s := spans[i]
		fmt.Fprintf(w, `{"i":%d,"name":%q,"start_ns":%d,"end_ns":%d,"parent":%d,"conn":%d,"id":%d}`+"\n",
			i, spanNames[s.kind], s.start, s.end, s.parent, s.conn, s.id)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// connStats are the server-connection counters the traced listener keeps.
type connStats struct {
	reads, writes         atomic.Uint64
	bytesRead, bytesWrote atomic.Uint64
	busyNs                atomic.Int64
	frames                atomic.Uint64 // binary request frames parsed
}

// connSnap is a reading of connStats.
type connSnap struct {
	reads, writes, bytesRead, bytesWrote uint64
	busyNs                               int64
}

func (s *connStats) snap() connSnap {
	return connSnap{s.reads.Load(), s.writes.Load(), s.bytesRead.Load(), s.bytesWrote.Load(), s.busyNs.Load()}
}

func (a connSnap) sub(b connSnap) connSnap {
	return connSnap{a.reads - b.reads, a.writes - b.writes, a.bytesRead - b.bytesRead, a.bytesWrote - b.bytesWrote, a.busyNs - b.busyNs}
}

// tracedListener hands the server connections that count and time their
// I/O.
type tracedListener struct {
	net.Listener
	tr    *tracer
	st    *connStats
	conns atomic.Uint32
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, tr: l.tr, st: l.st, id: uint16(l.conns.Add(1)), busy: -1}, nil
}

// tracedConn is used by exactly one server goroutine, so its fields need
// no locking.
type tracedConn struct {
	net.Conn
	tr *tracer
	st *connStats
	id uint16

	busy      int32     // open busy span, -1 for none
	busyStart time.Time // start of the current busy interval

	// Binary frame scanner: header bytes gathered so far and body bytes
	// still to skip. Text connections fail the first header and stop it.
	hdr  [proto.HeaderLen]byte
	have int
	skip int
	text bool
}

func (c *tracedConn) Read(b []byte) (int, error) {
	if !c.busyStart.IsZero() {
		c.st.busyNs.Add(int64(time.Since(c.busyStart)))
		c.busyStart = time.Time{}
	}
	c.tr.end(c.busy)
	c.busy = -1
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.busyStart = time.Now()
		c.st.reads.Add(1)
		c.st.bytesRead.Add(uint64(n))
		first := c.scan(b[:n])
		c.busy = c.tr.begin(spanServerBusy, -1, c.id, first)
	}
	return n, err
}

// scan parses the binary request frames in b and returns the id of the
// first frame whose header completes in it.
func (c *tracedConn) scan(b []byte) uint32 {
	var first uint32
	seen := false
	for len(b) > 0 && !c.text {
		if c.skip > 0 {
			k := min(c.skip, len(b))
			c.skip -= k
			b = b[k:]
			continue
		}
		k := copy(c.hdr[c.have:], b)
		c.have += k
		b = b[k:]
		if c.have < proto.HeaderLen {
			break
		}
		c.have = 0
		h, err := proto.ParseRequestHeader(c.hdr[:])
		if err != nil {
			c.text = true
			break
		}
		c.st.frames.Add(1)
		if !seen {
			first, seen = h.ID, true
		}
		c.skip = h.KeyLen + h.ValueLen
	}
	return first
}

func (c *tracedConn) Write(b []byte) (int, error) {
	i := c.tr.begin(spanServerWrite, c.busy, c.id, 0)
	n, err := c.Conn.Write(b)
	c.tr.end(i)
	c.st.writes.Add(1)
	c.st.bytesWrote.Add(uint64(n))
	return n, err
}

// fsStats are the flash tier's file operations as the timing FS saw them.
type fsStats struct {
	writes, writeBytes, writeNs atomic.Int64
	reads, readNs               atomic.Int64
	syncs, syncNs               atomic.Int64
}

// timedFS passes every call to the real filesystem and times the data
// operations.
type timedFS struct {
	faultfs.FS
	tr *tracer
	st *fsStats
}

func (f timedFS) OpenFile(name string, flag int, perm os.FileMode) (faultfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return timedFile{File: file, tr: f.tr, st: f.st}, nil
}

type timedFile struct {
	faultfs.File
	tr *tracer
	st *fsStats
}

func (f timedFile) WriteAt(b []byte, off int64) (int, error) {
	i := f.tr.begin(spanFSWrite, -1, 0, 0)
	t := time.Now()
	n, err := f.File.WriteAt(b, off)
	f.st.writeNs.Add(int64(time.Since(t)))
	f.tr.end(i)
	f.st.writes.Add(1)
	f.st.writeBytes.Add(int64(n))
	return n, err
}

func (f timedFile) ReadAt(b []byte, off int64) (int, error) {
	i := f.tr.begin(spanFSRead, -1, 0, 0)
	t := time.Now()
	n, err := f.File.ReadAt(b, off)
	f.st.readNs.Add(int64(time.Since(t)))
	f.tr.end(i)
	f.st.reads.Add(1)
	return n, err
}

func (f timedFile) Sync() error {
	i := f.tr.begin(spanFSSync, -1, 0, 0)
	t := time.Now()
	err := f.File.Sync()
	f.st.syncNs.Add(int64(time.Since(t)))
	f.tr.end(i)
	f.st.syncs.Add(1)
	return err
}

// traceRecord summarizes a traced phase for the record line: per span
// kind, the count and mean total and self time.
func traceRecord(t *tracer, lt layerTimes, path string, from, to int) map[string]any {
	kinds := map[string]any{}
	for k := spanKind(0); k < numSpanKinds; k++ {
		if n := lt.count[k]; n > 0 {
			kinds[spanNames[k]] = map[string]any{
				"count":        n,
				"mean_ns":      float64(lt.total[k]) / float64(n),
				"mean_self_ns": float64(lt.self[k]) / float64(n),
			}
		}
	}
	return map[string]any{
		"spans": to - from, "dropped": t.dropped.Load(), "sampled_one_in": t.every,
		"span_file": path, "layers": kinds,
	}
}

// child opens a span under parent when the parent is being recorded.
func (t *tracer) child(parent int32, kind spanKind) int32 {
	if parent < 0 {
		return -1
	}
	return t.begin(kind, parent, 0, 0)
}

// fsSnap is a reading of fsStats.
type fsSnap struct {
	writes, writeBytes, writeNs, reads, readNs, syncs, syncNs int64
}

func (s *fsStats) snap() fsSnap {
	return fsSnap{s.writes.Load(), s.writeBytes.Load(), s.writeNs.Load(), s.reads.Load(), s.readNs.Load(), s.syncs.Load(), s.syncNs.Load()}
}

func (a fsSnap) sub(b fsSnap) fsSnap {
	return fsSnap{a.writes - b.writes, a.writeBytes - b.writeBytes, a.writeNs - b.writeNs,
		a.reads - b.reads, a.readNs - b.readNs, a.syncs - b.syncs, a.syncNs - b.syncNs}
}
