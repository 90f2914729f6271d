package m68k

import "fmt"

// DeviceBase is the start of the memory-mapped device window. Data
// addresses at or above this value are routed to the CPU's DeviceBus
// (PASM maps the interconnection-network transfer registers and the
// SIMD instruction space there).
const DeviceBase uint32 = 0x00F00000

// Memory models one processor's main memory: big-endian, byte
// addressed, with a configurable per-access wait-state penalty and a
// deterministic DRAM refresh-interference model.
//
// The PASM prototype's PE main memories are dynamic RAM that costs one
// more wait state per access than the Fetch Unit queue's static RAM,
// and DRAM refresh can occasionally steal bus cycles from the CPU (the
// paper, Section 3). Refresh is modeled deterministically: at most one
// stall of RefreshStall cycles is charged per RefreshPeriod of
// simulated time, and only when an access actually collides with it.
type Memory struct {
	data []byte

	// WaitStates is charged once per bus access (a word or byte
	// transfer; longs are two accesses).
	WaitStates int64
	// RefreshPeriod is the minimum spacing, in CPU cycles, between
	// charged refresh stalls. Zero disables refresh modeling.
	RefreshPeriod int64
	// RefreshStall is the cycles stolen by one refresh collision.
	RefreshStall int64

	nextRefresh int64
}

// NewMemory returns a memory of the given size in bytes with no wait
// states and no refresh (static-RAM behaviour); callers configure the
// DRAM penalties explicitly.
func NewMemory(size uint32) *Memory {
	return &Memory{data: make([]byte, size)}
}

// Size returns the memory size in bytes.
func (m *Memory) Size() uint32 { return uint32(len(m.data)) }

// Reset zeroes the contents and the refresh phase but keeps the
// timing configuration.
func (m *Memory) Reset() {
	for i := range m.data {
		m.data[i] = 0
	}
	m.nextRefresh = 0
}

// Penalty returns the wait-state plus refresh cycles for `accesses`
// bus accesses starting at the given CPU clock, advancing the refresh
// phase. It is deterministic in (clock, access history).
func (m *Memory) Penalty(clock int64, accesses int64) int64 {
	p := m.WaitStates * accesses
	if m.RefreshPeriod > 0 && clock >= m.nextRefresh {
		p += m.RefreshStall
		m.nextRefresh = clock + m.RefreshPeriod
	}
	return p
}

// AddressError reports an odd-address word/long access, which the
// MC68000 raises as an address-error exception. The simulator surfaces
// it as a program error.
type AddressError struct {
	Addr uint32
	Size Size
}

func (e *AddressError) Error() string {
	return fmt.Sprintf("m68k: address error: %s access at odd address $%X", e.Size, e.Addr)
}

// BoundsError reports an access outside the memory.
type BoundsError struct {
	Addr uint32
	Size Size
}

func (e *BoundsError) Error() string {
	return fmt.Sprintf("m68k: bus error: %s access at $%X beyond memory", e.Size, e.Addr)
}

func (m *Memory) check(addr uint32, sz Size) error {
	if sz != Byte && addr&1 != 0 {
		return &AddressError{Addr: addr, Size: sz}
	}
	if addr+sz.Bytes() > uint32(len(m.data)) || addr+sz.Bytes() < addr {
		return &BoundsError{Addr: addr, Size: sz}
	}
	return nil
}

// Read returns the value of the given size at addr (big-endian).
func (m *Memory) Read(addr uint32, sz Size) (uint32, error) {
	if err := m.check(addr, sz); err != nil {
		return 0, err
	}
	switch sz {
	case Byte:
		return uint32(m.data[addr]), nil
	case Word:
		return uint32(m.data[addr])<<8 | uint32(m.data[addr+1]), nil
	default:
		return uint32(m.data[addr])<<24 | uint32(m.data[addr+1])<<16 |
			uint32(m.data[addr+2])<<8 | uint32(m.data[addr+3]), nil
	}
}

// Write stores the value of the given size at addr (big-endian).
func (m *Memory) Write(addr uint32, sz Size, val uint32) error {
	if err := m.check(addr, sz); err != nil {
		return err
	}
	switch sz {
	case Byte:
		m.data[addr] = byte(val)
	case Word:
		m.data[addr] = byte(val >> 8)
		m.data[addr+1] = byte(val)
	default:
		m.data[addr] = byte(val >> 24)
		m.data[addr+1] = byte(val >> 16)
		m.data[addr+2] = byte(val >> 8)
		m.data[addr+3] = byte(val)
	}
	return nil
}

// WriteWords stores a slice of 16-bit words starting at addr; a
// convenience for loading data segments from the host.
func (m *Memory) WriteWords(addr uint32, words []uint16) error {
	for i, w := range words {
		if err := m.Write(addr+uint32(2*i), Word, uint32(w)); err != nil {
			return err
		}
	}
	return nil
}

// ReadWords reads count 16-bit words starting at addr.
func (m *Memory) ReadWords(addr uint32, count int) ([]uint16, error) {
	out := make([]uint16, count)
	for i := range out {
		v, err := m.Read(addr+uint32(2*i), Word)
		if err != nil {
			return nil, err
		}
		out[i] = uint16(v)
	}
	return out, nil
}
