// Package mem simulates a paged 48-bit process address space.
//
// The address space is the substrate everything else stands on: program
// images are mapped into it as regions (.text, .data, .bss, heap, stack, …),
// the execution engine keeps its call stacks in it (so a buffer overflow can
// really overwrite return addresses), the sMVX monitor clones shifted copies
// of regions into it to build the follower variant's non-overlapping layout,
// and the taint engine stores per-byte tags in it.
//
// Pages are allocated lazily on first touch, which gives a meaningful
// resident-set-size (RSS) metric for the paper's memory-consumption
// experiment (Section 4.1).
package mem

import (
	"fmt"
	"sort"
	"sync"

	"smvx/internal/sim/clock"
	"smvx/internal/sim/mpk"
)

// PageSize is the size of one page, 4KiB as on x86-64.
const PageSize = 4096

// PointerAlign is the alignment of pointers on x86-64; the pointer scanner
// visits only PointerAlign-aligned slots (Section 3.4).
const PointerAlign = 8

// Addr is a simulated virtual address.
type Addr uint64

// PageBase returns the base address of the page containing a.
func (a Addr) PageBase() Addr { return a &^ (PageSize - 1) }

// String formats the address in the conventional hex form.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Perm is a page permission bitmask.
type Perm uint8

// Permission bits.
const (
	PermRead Perm = 1 << iota
	PermWrite
	PermExec
)

// Common permission combinations.
const (
	PermRW  = PermRead | PermWrite
	PermRX  = PermRead | PermExec
	PermRWX = PermRead | PermWrite | PermExec
)

// String renders the permission mask in rwx form.
func (p Perm) String() string {
	b := []byte("---")
	if p&PermRead != 0 {
		b[0] = 'r'
	}
	if p&PermWrite != 0 {
		b[1] = 'w'
	}
	if p&PermExec != 0 {
		b[2] = 'x'
	}
	return string(b)
}

// allows reports whether the permission mask admits the access kind.
func (p Perm) allows(a mpk.Access) bool {
	switch a {
	case mpk.Read:
		return p&PermRead != 0
	case mpk.Write:
		return p&PermWrite != 0
	case mpk.Execute:
		return p&PermExec != 0
	default:
		return false
	}
}

// Region is a contiguous mapped range with uniform permissions and a
// protection key.
type Region struct {
	// Name identifies the region (".text", "heap", "stack:tid", …).
	Name string
	// Base is the first address of the region (page-aligned).
	Base Addr
	// Size is the region length in bytes (multiple of PageSize).
	Size uint64
	// Perm is the page-permission mask.
	Perm Perm
	// Key is the MPK protection key attached to the region's pages.
	Key mpk.Key
}

// End returns the first address past the region.
func (r *Region) End() Addr { return r.Base + Addr(r.Size) }

// Contains reports whether a falls inside the region.
func (r *Region) Contains(a Addr) bool { return a >= r.Base && a < r.End() }

// FaultKind classifies a memory fault.
type FaultKind int

// Fault kinds.
const (
	// FaultUnmapped is an access to an address with no mapped region —
	// the signal the follower variant raises when an exploit jumps to a
	// leader-layout gadget address.
	FaultUnmapped FaultKind = iota + 1
	// FaultPerm is a page-permission violation (e.g. writing .text).
	FaultPerm
	// FaultPkey is an MPK violation: the thread's PKRU disables the
	// region's protection key for this access.
	FaultPkey
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultUnmapped:
		return "unmapped"
	case FaultPerm:
		return "permission"
	case FaultPkey:
		return "pkey"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultError is the simulated equivalent of SIGSEGV: a memory access the
// MMU (or the protection-key unit) refused.
type FaultError struct {
	// Kind classifies the fault.
	Kind FaultKind
	// Addr is the faulting address.
	Addr Addr
	// Access is the operation that faulted.
	Access mpk.Access
	// Region names the region hit, if any.
	Region string
}

// Error implements the error interface.
func (e *FaultError) Error() string {
	if e.Region == "" {
		return fmt.Sprintf("segfault: %s %s at %s", e.Kind, e.Access, e.Addr)
	}
	return fmt.Sprintf("segfault: %s %s at %s (region %s)", e.Kind, e.Access, e.Addr, e.Region)
}

type page struct {
	data  [PageSize]byte
	taint []byte // lazily allocated; parallel per-byte taint tags
}

// AddressSpace is a simulated virtual address space.
//
// It is safe for concurrent use by multiple simulated threads. The sMVX
// leader and follower variants share one AddressSpace (the follower is a
// thread) but operate on non-overlapping regions.
type AddressSpace struct {
	mu      sync.RWMutex
	pages   map[Addr]*page
	regions []*Region // sorted by Base

	counter *clock.Counter
	wall    *clock.Counter
	costs   clock.CostTable

	taintEnabled bool

	// snap is the active copy-on-write snapshot (nil when none); snapGen
	// numbers captures. See snapshot.go.
	snap    *Snapshot
	snapGen uint64
}

// SetWallCounter attaches a second counter that models elapsed (wall-clock)
// time as opposed to total CPU consumption; address-space work is charged
// to both.
func (as *AddressSpace) SetWallCounter(c *clock.Counter) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.wall = c
}

// GetWallCounter returns the attached wall counter (nil if none) — callers
// that move work off the critical path (the monitor's pre-scan) detach and
// restore it around the background phase.
func (as *AddressSpace) GetWallCounter() *clock.Counter {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.wall
}

// NewAddressSpace returns an empty address space charging cycle costs to
// counter (which may be nil to disable accounting).
func NewAddressSpace(counter *clock.Counter, costs clock.CostTable) *AddressSpace {
	return &AddressSpace{
		pages:   make(map[Addr]*page),
		counter: counter,
		costs:   costs,
	}
}

// charge adds n cycles to the counter(s) if accounting is enabled. wall
// selects whether the work lands on the elapsed-time counter too (false
// for background/follower thread accesses, which run on a spare core).
func (as *AddressSpace) charge(n clock.Cycles, wall bool) {
	if as.counter != nil {
		as.counter.Charge(n)
	}
	if wall && as.wall != nil {
		as.wall.Charge(n)
	}
}

// EnableTaint switches on per-byte taint tracking for subsequently touched
// pages.
func (as *AddressSpace) EnableTaint() {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.taintEnabled = true
}

// TaintEnabled reports whether taint tracking is on.
func (as *AddressSpace) TaintEnabled() bool {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.taintEnabled
}

// Map adds a region to the address space. The base and size are rounded out
// to page boundaries. Overlap with an existing region is an error.
func (as *AddressSpace) Map(r Region) (*Region, error) {
	if r.Size == 0 {
		return nil, fmt.Errorf("mem: map %q: zero size", r.Name)
	}
	r.Base = r.Base.PageBase()
	r.Size = (r.Size + PageSize - 1) &^ (PageSize - 1)

	as.mu.Lock()
	defer as.mu.Unlock()
	for _, existing := range as.regions {
		if r.Base < existing.End() && existing.Base < r.Base+Addr(r.Size) {
			return nil, fmt.Errorf("mem: map %q at %s: overlaps region %q", r.Name, r.Base, existing.Name)
		}
	}
	reg := &Region{Name: r.Name, Base: r.Base, Size: r.Size, Perm: r.Perm, Key: r.Key}
	as.regions = append(as.regions, reg)
	sort.Slice(as.regions, func(i, j int) bool { return as.regions[i].Base < as.regions[j].Base })
	return reg, nil
}

// Unmap removes the region containing base and discards its resident pages.
func (as *AddressSpace) Unmap(base Addr) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for i, r := range as.regions {
		if r.Base == base {
			for p := r.Base; p < r.End(); p += PageSize {
				if pg := as.pages[p]; pg != nil {
					// Unmapping destroys page contents; preserve pre-images
					// so a checkpoint restore can resurrect the region.
					as.cowSaveLocked(p, pg, true)
				}
				delete(as.pages, p)
			}
			as.regions = append(as.regions[:i], as.regions[i+1:]...)
			return nil
		}
	}
	return fmt.Errorf("mem: unmap %s: no region at that base", base)
}

// RegionAt returns the region containing a, or nil.
func (as *AddressSpace) RegionAt(a Addr) *Region {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return as.regionAtLocked(a)
}

func (as *AddressSpace) regionAtLocked(a Addr) *Region {
	i := sort.Search(len(as.regions), func(i int) bool { return as.regions[i].End() > a })
	if i < len(as.regions) && as.regions[i].Contains(a) {
		return as.regions[i]
	}
	return nil
}

// RegionByName returns the first region with the given name, or nil.
func (as *AddressSpace) RegionByName(name string) *Region {
	as.mu.RLock()
	defer as.mu.RUnlock()
	for _, r := range as.regions {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// Regions returns a snapshot of all mapped regions, sorted by base address.
func (as *AddressSpace) Regions() []Region {
	as.mu.RLock()
	defer as.mu.RUnlock()
	out := make([]Region, len(as.regions))
	for i, r := range as.regions {
		out[i] = *r
	}
	return out
}

// SetRegionPerm updates the permission mask of the region based at base.
// The monitor uses it to flip trampoline pages to execute-only.
func (as *AddressSpace) SetRegionPerm(base Addr, p Perm) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, r := range as.regions {
		if r.Base == base {
			r.Perm = p
			return nil
		}
	}
	return fmt.Errorf("mem: set perm at %s: no region", base)
}

// SetRegionKey attaches protection key k to the region based at base,
// mirroring pkey_mprotect(2).
func (as *AddressSpace) SetRegionKey(base Addr, k mpk.Key) error {
	as.mu.Lock()
	defer as.mu.Unlock()
	for _, r := range as.regions {
		if r.Base == base {
			r.Key = k
			return nil
		}
	}
	return fmt.Errorf("mem: set pkey at %s: no region", base)
}

// pageFor returns the resident page containing a, faulting it in if the
// address is mapped.
func (as *AddressSpace) pageFor(a Addr) (*page, *Region, error) {
	base := a.PageBase()
	as.mu.RLock()
	pg := as.pages[base]
	reg := as.regionAtLocked(a)
	taint := as.taintEnabled
	as.mu.RUnlock()
	if reg == nil {
		return nil, nil, &FaultError{Kind: FaultUnmapped, Addr: a, Access: mpk.Read}
	}
	if pg != nil {
		return pg, reg, nil
	}
	as.mu.Lock()
	if pg = as.pages[base]; pg == nil {
		pg = &page{}
		if taint {
			pg.taint = make([]byte, PageSize)
		}
		as.pages[base] = pg
	}
	as.mu.Unlock()
	return pg, reg, nil
}

// check validates an access of n bytes at a against page permissions and,
// when pkru is non-nil, against the thread's protection-key rights.
func (as *AddressSpace) check(a Addr, n int, access mpk.Access, pkru *mpk.PKRU) error {
	if n <= 0 {
		return nil
	}
	// Validate the first and last byte's pages; regions have uniform
	// permissions, so checking region boundaries suffices.
	for _, probe := range []Addr{a, a + Addr(n-1)} {
		reg := as.RegionAt(probe)
		if reg == nil {
			return &FaultError{Kind: FaultUnmapped, Addr: probe, Access: access}
		}
		if !reg.Perm.allows(access) {
			return &FaultError{Kind: FaultPerm, Addr: probe, Access: access, Region: reg.Name}
		}
		if pkru != nil && !pkru.Check(reg.Key, access) {
			return &FaultError{Kind: FaultPkey, Addr: probe, Access: access, Region: reg.Name}
		}
	}
	return nil
}

// ReadAt copies len(buf) bytes from address a into buf using monitor
// privileges (page permissions enforced, protection keys bypassed).
func (as *AddressSpace) ReadAt(a Addr, buf []byte) error {
	return as.read(a, buf, nil, true)
}

// CheckedReadAt is ReadAt with the thread's PKRU enforced.
func (as *AddressSpace) CheckedReadAt(a Addr, buf []byte, pkru mpk.PKRU) error {
	return as.read(a, buf, &pkru, true)
}

// CheckedReadAtBG is CheckedReadAt for background (spare-core) threads: the
// work counts toward CPU consumption but not wall time.
func (as *AddressSpace) CheckedReadAtBG(a Addr, buf []byte, pkru mpk.PKRU) error {
	return as.read(a, buf, &pkru, false)
}

func (as *AddressSpace) read(a Addr, buf []byte, pkru *mpk.PKRU, wall bool) error {
	if err := as.check(a, len(buf), mpk.Read, pkru); err != nil {
		return err
	}
	as.charge(as.costs.MemAccess*clock.Cycles(1+len(buf)/64), wall)
	return as.copyOut(a, buf)
}

// copyOut copies len(buf) bytes at a out of the resident pages, faulting
// missing pages in. Each page's lookup and copy run under the read lock,
// so a concurrent write — which holds the write lock for its whole store
// — never tears the copy.
func (as *AddressSpace) copyOut(a Addr, buf []byte) error {
	for off := 0; off < len(buf); {
		addr := a + Addr(off)
		as.mu.RLock()
		if pg := as.pages[addr.PageBase()]; pg != nil && as.regionAtLocked(addr) != nil {
			off += copy(buf[off:], pg.data[addr&(PageSize-1):])
			as.mu.RUnlock()
			continue
		}
		as.mu.RUnlock()
		// Fault the page in (under the write lock); the next pass copies.
		if _, _, err := as.pageFor(addr); err != nil {
			return err
		}
	}
	return nil
}

// WriteAt copies buf to address a using monitor privileges.
func (as *AddressSpace) WriteAt(a Addr, buf []byte) error {
	return as.write(a, buf, nil, true)
}

// CheckedWriteAt is WriteAt with the thread's PKRU enforced.
func (as *AddressSpace) CheckedWriteAt(a Addr, buf []byte, pkru mpk.PKRU) error {
	return as.write(a, buf, &pkru, true)
}

// CheckedWriteAtBG is CheckedWriteAt for background (spare-core) threads.
func (as *AddressSpace) CheckedWriteAtBG(a Addr, buf []byte, pkru mpk.PKRU) error {
	return as.write(a, buf, &pkru, false)
}

func (as *AddressSpace) write(a Addr, buf []byte, pkru *mpk.PKRU, wall bool) error {
	if err := as.check(a, len(buf), mpk.Write, pkru); err != nil {
		return err
	}
	as.charge(as.costs.MemAccess*clock.Cycles(1+len(buf)/64), wall)
	// The whole store runs under the write lock so a concurrent Snapshot
	// sits entirely before or entirely after it — a checkpoint can never
	// observe a torn multi-page write — and so the copy-on-write barrier
	// preserves each page's pre-image atomically with its mutation.
	as.mu.Lock()
	defer as.mu.Unlock()
	for off := 0; off < len(buf); {
		addr := a + Addr(off)
		base := addr.PageBase()
		pg := as.pages[base]
		if pg == nil {
			if as.regionAtLocked(addr) == nil {
				return &FaultError{Kind: FaultUnmapped, Addr: addr, Access: mpk.Write}
			}
			pg = &page{}
			if as.taintEnabled {
				pg.taint = make([]byte, PageSize)
			}
			as.pages[base] = pg
		}
		as.cowSaveLocked(base, pg, wall)
		po := int(addr & (PageSize - 1))
		n := copy(pg.data[po:], buf[off:])
		off += n
	}
	return nil
}

// Read64 loads a little-endian 64-bit word.
func (as *AddressSpace) Read64(a Addr) (uint64, error) {
	var b [8]byte
	if err := as.ReadAt(a, b[:]); err != nil {
		return 0, err
	}
	return le64(b[:]), nil
}

// Write64 stores a little-endian 64-bit word.
func (as *AddressSpace) Write64(a Addr, v uint64) error {
	var b [8]byte
	put64(b[:], v)
	return as.WriteAt(a, b[:])
}

// CheckExec validates an instruction fetch at a (page permissions only;
// protection keys never block execution — XoM semantics).
func (as *AddressSpace) CheckExec(a Addr) error {
	return as.check(a, 1, mpk.Execute, nil)
}

// FetchCode reads len(buf) instruction bytes at a the way the CPU's fetch
// unit does: the pages must be executable, but read permission and
// protection keys are irrelevant — execute-only memory can be fetched but
// not ReadAt. The gadget interpreter uses this to "run" bytes it could
// never disclose.
func (as *AddressSpace) FetchCode(a Addr, buf []byte) error {
	if err := as.check(a, len(buf), mpk.Execute, nil); err != nil {
		return err
	}
	as.charge(as.costs.MemAccess, true)
	return as.copyOut(a, buf)
}

// ResidentPages returns the number of faulted-in pages: the simulated RSS
// in pages.
func (as *AddressSpace) ResidentPages() int {
	as.mu.RLock()
	defer as.mu.RUnlock()
	return len(as.pages)
}

// ResidentKB returns the simulated resident set size in KiB, the quantity
// the paper measures with pmap (Section 4.1).
func (as *AddressSpace) ResidentKB() int {
	return as.ResidentPages() * PageSize / 1024
}

// ResidentKBIn returns the RSS in KiB restricted to regions whose names
// satisfy keep.
func (as *AddressSpace) ResidentKBIn(keep func(region string) bool) int {
	as.mu.RLock()
	defer as.mu.RUnlock()
	n := 0
	for base := range as.pages {
		if r := as.regionAtLocked(base); r != nil && keep(r.Name) {
			n++
		}
	}
	return n * PageSize / 1024
}

// Touch faults in every page of the region based at base, as a loader
// populating an image does.
func (as *AddressSpace) Touch(base Addr, size uint64) error {
	for a := base.PageBase(); a < base+Addr(size); a += PageSize {
		if _, _, err := as.pageFor(a); err != nil {
			return err
		}
	}
	return nil
}

func le64(b []byte) uint64 {
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func put64(b []byte, v uint64) {
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
