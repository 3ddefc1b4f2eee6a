// Package hbm models the High-Bandwidth Memory subsystem of the paper's
// test platform: two 4 GB HBM2 stacks, each with 8 independent 128-bit
// memory channels split into two 64-bit pseudo channels (PCs), for a
// total of 32 PCs of 256 MB each (§II-A/B, Fig. 1).
//
// The model covers exactly what the experiments exercise: word-granular
// reads and writes through the pseudo channels, the voltage-dependent
// fault overlay, and the crash behaviour below V_critical. Bank-level
// command timing is not modelled: the AXI fabric, not the DRAM, limits
// the platform's bandwidth (internal/axi).
package hbm

import "fmt"

// Organization captures the address-space geometry of the platform. The
// zero value is not useful; use DefaultOrganization (the paper's VCU128
// configuration) or a scaled variant from Scaled.
type Organization struct {
	// Stacks is the number of HBM stacks (2 on the VCU128).
	Stacks int
	// ChannelsPerStack is the number of 128-bit memory channels per stack.
	ChannelsPerStack int
	// PCsPerChannel is the number of pseudo channels per channel.
	PCsPerChannel int
	// WordsPerPC is the number of 256-bit AXI words per pseudo channel
	// (8M words = 256 MB at full scale).
	WordsPerPC uint64
	// WordsPerRow is the number of words per DRAM row (32 = 1 KB rows).
	WordsPerRow uint64
	// BankGroups and BanksPerGroup describe the per-PC bank organization.
	BankGroups    int
	BanksPerGroup int
}

// DefaultOrganization is the paper's platform: 2 stacks x 8 channels x 2
// pseudo channels, 256 MB per PC, 1 KB rows, 16 banks per PC.
var DefaultOrganization = Organization{
	Stacks:           2,
	ChannelsPerStack: 8,
	PCsPerChannel:    2,
	WordsPerPC:       8 << 20,
	WordsPerRow:      32,
	BankGroups:       4,
	BanksPerGroup:    4,
}

// Scaled returns the default organization with each pseudo channel
// shrunk by the given factor (must be a power-of-two divisor of the full
// word count). Scaling preserves row size and bank structure, so fault
// clustering and addressing behave identically; only capacity shrinks.
// It mirrors the paper's own reduction from 256M words (whole HBM) to 8M
// words (single PC).
func Scaled(factor uint64) (Organization, error) {
	o := DefaultOrganization
	if factor == 0 {
		return o, fmt.Errorf("hbm: zero scale factor")
	}
	if o.WordsPerPC%factor != 0 {
		return o, fmt.Errorf("hbm: scale factor %d does not divide %d words", factor, o.WordsPerPC)
	}
	o.WordsPerPC /= factor
	if o.WordsPerPC < o.WordsPerRow {
		return o, fmt.Errorf("hbm: scale factor %d leaves less than one row", factor)
	}
	return o, nil
}

// PCsPerStack returns the number of pseudo channels per stack (16).
func (o Organization) PCsPerStack() int { return o.ChannelsPerStack * o.PCsPerChannel }

// TotalPCs returns the device-wide pseudo-channel count (32).
func (o Organization) TotalPCs() int { return o.Stacks * o.PCsPerStack() }

// BytesPerPC returns the capacity of one pseudo channel in bytes.
func (o Organization) BytesPerPC() uint64 { return o.WordsPerPC * 32 }

// BytesPerStack returns the capacity of one stack in bytes.
func (o Organization) BytesPerStack() uint64 {
	return o.BytesPerPC() * uint64(o.PCsPerStack())
}

// TotalBytes returns the device capacity in bytes (8 GB at full scale).
func (o Organization) TotalBytes() uint64 {
	return o.BytesPerStack() * uint64(o.Stacks)
}

// RowsPerPC returns the number of DRAM rows per pseudo channel.
func (o Organization) RowsPerPC() uint64 { return o.WordsPerPC / o.WordsPerRow }

// Banks returns the number of banks per pseudo channel.
func (o Organization) Banks() int { return o.BankGroups * o.BanksPerGroup }

// Validate reports whether the organization is internally consistent.
func (o Organization) Validate() error {
	switch {
	case o.Stacks <= 0 || o.ChannelsPerStack <= 0 || o.PCsPerChannel <= 0:
		return fmt.Errorf("hbm: non-positive structure counts: %+v", o)
	case o.WordsPerRow == 0 || o.WordsPerPC == 0:
		return fmt.Errorf("hbm: zero geometry: %+v", o)
	case o.WordsPerPC%o.WordsPerRow != 0:
		return fmt.Errorf("hbm: WordsPerPC %d not a multiple of WordsPerRow %d", o.WordsPerPC, o.WordsPerRow)
	case o.BankGroups <= 0 || o.BanksPerGroup <= 0:
		return fmt.Errorf("hbm: bank structure invalid: %+v", o)
	case o.RowsPerPC()%uint64(o.Banks()) != 0:
		return fmt.Errorf("hbm: rows per PC %d not divisible by %d banks", o.RowsPerPC(), o.Banks())
	}
	return nil
}

// MaxPorts is the number of AXI ports the platform exposes (one per
// pseudo channel).
const MaxPorts = 32

// PortID identifies one of the 32 AXI ports; each port is hard-wired to
// one pseudo channel when the switching network is disabled (the paper's
// configuration).
type PortID int

// StackPC resolves a port to its (stack, pc-within-stack) pair: ports
// 0-15 belong to HBM0, 16-31 to HBM1, matching the paper's Fig. 5 axis.
func (p PortID) StackPC(o Organization) (stack, pc int) {
	per := o.PCsPerStack()
	return int(p) / per, int(p) % per
}

// Location decodes a word address within a pseudo channel into its
// physical coordinates.
type Location struct {
	BankGroup int
	Bank      int
	Row       uint64 // row within the bank
	Column    uint64 // word offset within the row
}

// Decode maps a PC-relative word address to bank/row/column coordinates.
// The mapping interleaves bank groups at word granularity — consecutive
// 256-bit words rotate through the four bank groups, the arrangement the
// Xilinx HBM IP uses so sequential streams avoid the tCCD_L same-group
// spacing penalty — then walks columns, banks within a group, and rows.
func (o Organization) Decode(addr uint64) Location {
	bg := addr % uint64(o.BankGroups)
	rest := addr / uint64(o.BankGroups)
	col := rest % o.WordsPerRow
	blk := rest / o.WordsPerRow
	return Location{
		BankGroup: int(bg),
		Bank:      int(blk % uint64(o.BanksPerGroup)),
		Row:       blk / uint64(o.BanksPerGroup),
		Column:    col,
	}
}

// Encode is the inverse of Decode.
func (o Organization) Encode(l Location) uint64 {
	blk := l.Row*uint64(o.BanksPerGroup) + uint64(l.Bank)
	rest := blk*o.WordsPerRow + l.Column
	return rest*uint64(o.BankGroups) + uint64(l.BankGroup)
}
