package emu

import (
	"slices"
	"sync"
	"testing"

	"dpbp/internal/isa"
	"dpbp/internal/program"
)

// These tests cover the paged-slice memory with its one-entry last-page
// cache: page-boundary addressing, the cache's alternation path, the
// allocation-order independence of Snapshot, and the program image that
// emulators share until they store into it.

const pageWords = 1 << pageBits

func TestMemoryPageBoundaries(t *testing.T) {
	cases := []struct {
		name  string
		addrs []isa.Addr
	}{
		{"first page edge", []isa.Addr{0, 1, pageWords - 1}},
		{"page crossing", []isa.Addr{pageWords - 1, pageWords, pageWords + 1}},
		{"far pages", []isa.Addr{0, 3 * pageWords, 7*pageWords - 1, 7 * pageWords}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			m := NewMemory()
			for i, a := range c.addrs {
				m.Store(a, isa.Word(1000+i))
			}
			for i, a := range c.addrs {
				if got := m.Load(a); got != isa.Word(1000+i) {
					t.Errorf("addr %d: got %d, want %d", a, got, 1000+i)
				}
			}
			// Neighbours across the page boundary must be untouched.
			for _, a := range c.addrs {
				for _, n := range []isa.Addr{a - 1, a + 1} {
					if contains(c.addrs, n) {
						continue
					}
					if got := m.Load(n); got != 0 {
						t.Errorf("neighbour %d of %d: got %d, want 0", n, a, got)
					}
				}
			}
		})
	}
}

func contains(xs []isa.Addr, a isa.Addr) bool {
	for _, x := range xs {
		if x == a {
			return true
		}
	}
	return false
}

// TestMemoryLastPageCacheAlternation hammers the one-entry page cache by
// alternating between pages, which forces the cache to miss and rescan on
// every access; values must survive regardless.
func TestMemoryLastPageCacheAlternation(t *testing.T) {
	m := NewMemory()
	a := isa.Addr(5)
	b := isa.Addr(9*pageWords + 5)
	c := isa.Addr(2*pageWords + 5)
	for i := 0; i < 100; i++ {
		m.Store(a, isa.Word(i))
		m.Store(b, isa.Word(-i))
		m.Store(c, isa.Word(i*3))
		if m.Load(a) != isa.Word(i) || m.Load(b) != isa.Word(-i) || m.Load(c) != isa.Word(i*3) {
			t.Fatalf("iteration %d: values lost while alternating pages", i)
		}
	}
}

func TestMemoryLoadUnwrittenIsZero(t *testing.T) {
	m := NewMemory()
	if got := m.Load(12345); got != 0 {
		t.Errorf("load from untouched memory = %d", got)
	}
	m.Store(0, 7)
	if got := m.Load(1); got != 0 { // same page, different word
		t.Errorf("load of unwritten word on an existing page = %d", got)
	}
}

// TestSnapshotOrderIndependent writes the same contents into two
// memories with opposite page-allocation orders; the snapshots must be
// identical, ascending, and contain only the nonzero words.
func TestSnapshotOrderIndependent(t *testing.T) {
	words := []MemWord{
		{Addr: 3, Val: 30},
		{Addr: pageWords + 1, Val: 11},
		{Addr: 5*pageWords + 2, Val: 52},
	}
	forward, backward := NewMemory(), NewMemory()
	for _, w := range words {
		forward.Store(w.Addr, w.Val)
	}
	for i := len(words) - 1; i >= 0; i-- {
		backward.Store(words[i].Addr, words[i].Val)
	}
	// A word stored then zeroed must not appear.
	forward.Store(7, 1)
	forward.Store(7, 0)
	backward.Store(7, 1)
	backward.Store(7, 0)

	f := forward.Snapshot(nil)
	b := backward.Snapshot(nil)
	if len(f) != len(words) {
		t.Fatalf("snapshot has %d words, want %d: %v", len(f), len(words), f)
	}
	for i := range f {
		if f[i] != words[i] {
			t.Errorf("snapshot[%d] = %+v, want %+v", i, f[i], words[i])
		}
		if f[i] != b[i] {
			t.Errorf("snapshot order depends on allocation history: %+v vs %+v", f[i], b[i])
		}
	}
}

func TestSnapshotAppends(t *testing.T) {
	m := NewMemory()
	m.Store(1, 2)
	prefix := MemWord{Addr: 99, Val: 99}
	got := m.Snapshot([]MemWord{prefix})
	if len(got) != 2 || got[0] != prefix || got[1] != (MemWord{Addr: 1, Val: 2}) {
		t.Errorf("Snapshot did not append: %v", got)
	}
}

// imageBase is a page-aligned data base, like synth.DataBase.
const imageBase = isa.Addr(1 << 20)

// imageProgram returns a program whose data image spans two whole pages
// and part of a third (word i holds i+1), and whose code stores val at
// addr, loads it back into r6 and halts.
func imageProgram(addr isa.Addr, val isa.Word) *program.Program {
	b := program.NewBuilder("image")
	b.Label("entry")
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: 4, Imm: isa.Word(addr)})
	b.Emit(isa.Inst{Op: isa.OpLdi, Dst: 5, Imm: val})
	b.Emit(isa.Inst{Op: isa.OpStore, Src1: 4, Src2: 5})
	b.Emit(isa.Inst{Op: isa.OpLoad, Dst: 6, Src1: 4})
	b.Label("halt")
	b.EmitBranch(isa.Inst{Op: isa.OpJmp}, "halt")
	p := b.Finish()
	p.DataBase = imageBase
	p.Data = make([]isa.Word, 2*pageWords+100)
	for i := range p.Data {
		p.Data[i] = isa.Word(i + 1)
	}
	return p
}

// aliased counts the memory's pages that alias the program image.
func aliased(m *Memory) int {
	n := 0
	for _, a := range m.image {
		if a {
			n++
		}
	}
	return n
}

// TestStoreCopiesImagePage stores into a whole page of a program's image.
// The emulator and its Snapshot see the store, the program's image does
// not change, a second emulator of the program reads the original word,
// and Reset restores it.
func TestStoreCopiesImagePage(t *testing.T) {
	addr := imageBase + pageWords + 7
	p := imageProgram(addr, -5)
	orig := slices.Clone(p.Data)
	want := orig[addr-imageBase]

	m := New(p)
	if got := aliased(m.Mem); got != 2 {
		t.Fatalf("%d pages alias the image after New, want the 2 whole pages", got)
	}
	m.Run(100, nil)
	if !m.Halted() || m.Reg(6) != -5 || m.Mem.Load(addr) != -5 {
		t.Fatalf("halted %v, r6 = %d, mem[%d] = %d; want the stored -5", m.Halted(), m.Reg(6), addr, m.Mem.Load(addr))
	}
	if got := aliased(m.Mem); got != 1 {
		t.Errorf("%d pages alias the image after one store, want 1", got)
	}
	snap := m.Mem.Snapshot(nil)
	if len(snap) != len(orig) {
		t.Fatalf("snapshot has %d words, want %d", len(snap), len(orig))
	}
	for i, w := range snap {
		v := orig[i]
		if w.Addr == addr {
			v = -5
		}
		if w.Addr != imageBase+isa.Addr(i) || w.Val != v {
			t.Fatalf("snapshot[%d] = %+v, want {%d %d}", i, w, imageBase+isa.Addr(i), v)
		}
	}
	if !slices.Equal(p.Data, orig) {
		t.Fatal("the store wrote through to Program.Data")
	}
	if got := New(p).Mem.Load(addr); got != want {
		t.Errorf("a second emulator reads %d at %d, want the image's %d", got, addr, want)
	}

	m.Reset(p)
	if got := m.Mem.Load(addr); got != want {
		t.Errorf("after Reset mem[%d] = %d, want the image's %d", addr, got, want)
	}
	if got := aliased(m.Mem); got != 2 {
		t.Errorf("%d pages alias the image after Reset, want 2", got)
	}
}

// TestResetReusesPrivatePages: a reset memory loads the image again, reads
// zero wherever the previous run stored outside it, and keeps the
// storage of the pages it copied.
func TestResetReusesPrivatePages(t *testing.T) {
	m := NewMemory()
	image := make([]isa.Word, pageWords+3)
	for i := range image {
		image[i] = isa.Word(i + 1)
	}
	m.Reset(imageBase, image)
	m.Store(imageBase+1, 99)           // copies the whole page
	m.Store(imageBase+pageWords+1, 98) // the edge page is already private
	m.Store(imageBase+5*pageWords, 97) // a page outside the image
	if got := m.Load(imageBase + pageWords); got != pageWords+1 {
		t.Fatalf("edge page word = %d, want %d", got, pageWords+1)
	}
	m.Reset(imageBase, image)
	for _, c := range []struct {
		addr isa.Addr
		want isa.Word
	}{{imageBase + 1, 2}, {imageBase + pageWords + 1, pageWords + 2}, {imageBase + 5*pageWords, 0}} {
		if got := m.Load(c.addr); got != c.want {
			t.Errorf("after Reset mem[%d] = %d, want %d", c.addr, got, c.want)
		}
	}
	if image[1] != 2 {
		t.Fatal("the store wrote through to the image")
	}
	// Two pages were copied or added; the edge page took one back.
	if len(m.free) != 2 {
		t.Errorf("%d free pages after Reset, want 2", len(m.free))
	}
}

// TestConcurrentEmulatorsShareImage runs emulators of one program on
// several goroutines at once, each storing into the image it shares with
// the others. Under -race a store through the alias is a data race; in
// any run it changes the image or another emulator's result.
func TestConcurrentEmulatorsShareImage(t *testing.T) {
	addr := imageBase + 11
	p := imageProgram(addr, 4242)
	orig := slices.Clone(p.Data)
	const workers = 4
	regs := make([]isa.Word, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			m := New(p)
			for rep := 0; rep < 50; rep++ {
				m.Run(100, nil)
				regs[w] += m.Reg(6) - m.Mem.Load(addr+1)
				m.Reset(p)
			}
		}(w)
	}
	wg.Wait()
	for w, r := range regs {
		if want := 50 * (4242 - orig[12]); r != want {
			t.Errorf("worker %d read %d, want %d", w, r, want)
		}
	}
	if !slices.Equal(p.Data, orig) {
		t.Error("a store wrote through to Program.Data")
	}
}
