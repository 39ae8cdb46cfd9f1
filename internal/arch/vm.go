package arch

import "fmt"

// VMConfig describes a paged virtual memory system.
type VMConfig struct {
	PageSize     int // bytes, power of two
	VirtualBits  int
	PhysicalBits int
}

// OffsetBits returns the page-offset width.
func (c VMConfig) OffsetBits() int { return log2i(c.PageSize) }

// Split decomposes a virtual address into (vpn, offset).
func (c VMConfig) Split(va uint64) (vpn, offset uint64) {
	ob := uint(c.OffsetBits())
	return va >> ob, va & (1<<ob - 1)
}

// Translate maps a virtual address through a page table (vpn -> pfn),
// returning the physical address or a page-fault error.
func (c VMConfig) Translate(va uint64, pageTable map[uint64]uint64) (uint64, error) {
	vpn, off := c.Split(va)
	pfn, ok := pageTable[vpn]
	if !ok {
		return 0, fmt.Errorf("arch: page fault on VPN 0x%x", vpn)
	}
	return pfn<<uint(c.OffsetBits()) | off, nil
}

// TLB is a small fully associative translation cache with LRU
// replacement.
type TLB struct {
	entries int
	slots   []tlbSlot
	tick    uint64

	Hits   int
	Misses int
}

type tlbSlot struct {
	valid bool
	vpn   uint64
	pfn   uint64
	used  uint64
}

// NewTLB returns a TLB with the given entry count.
func NewTLB(entries int) *TLB {
	return &TLB{entries: entries, slots: make([]tlbSlot, entries)}
}

// Lookup translates a VPN, filling from the page table on a miss.
// Returns the PFN and whether it hit.
func (t *TLB) Lookup(vpn uint64, pageTable map[uint64]uint64) (uint64, bool, error) {
	t.tick++
	for i := range t.slots {
		if t.slots[i].valid && t.slots[i].vpn == vpn {
			t.Hits++
			t.slots[i].used = t.tick
			return t.slots[i].pfn, true, nil
		}
	}
	t.Misses++
	pfn, ok := pageTable[vpn]
	if !ok {
		return 0, false, fmt.Errorf("arch: page fault on VPN 0x%x", vpn)
	}
	victim := 0
	for i := range t.slots {
		if !t.slots[i].valid {
			victim = i
			break
		}
		if t.slots[i].used < t.slots[victim].used {
			victim = i
		}
	}
	t.slots[victim] = tlbSlot{valid: true, vpn: vpn, pfn: pfn, used: t.tick}
	return pfn, false, nil
}

// MultiLevelEntries returns the per-level entry counts of a multi-level
// page table given the per-level index bit widths.
//
//lint:ignore unreachable called only by TestMultiLevelEntries
func MultiLevelEntries(levelBits []int) []int {
	out := make([]int, len(levelBits))
	for i, b := range levelBits {
		out[i] = 1 << b
	}
	return out
}
