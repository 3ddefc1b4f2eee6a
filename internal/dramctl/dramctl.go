// Package dramctl provides a command-level timing model of one HBM2
// pseudo channel: ACT/PRE/RD/WR/REF sequencing over a 16-bank (4 bank
// group) array with JEDEC-style timing parameters.
//
// The model is a timing *budget* estimator, not a cycle-accurate
// scheduler pipeline (see DESIGN.md non-goals): it tracks per-bank state,
// the shared data bus, and periodic all-bank refresh, and answers the
// question the experiments need — what fraction of the theoretical
// bandwidth a given access stream can sustain. With the default HBM2
// timings a sequential stream sustains ≈90% of peak, confirming the
// paper's observation that their 310 GB/s (of 429 GB/s theoretical) was
// limited by the FPGA-side AXI clocking, not by the DRAM.
package dramctl

import "fmt"

// Timing holds the pseudo-channel timing parameters in memory-clock
// cycles (except the refresh interval, which is in nanoseconds in JEDEC
// tables and converted via the clock).
type Timing struct {
	ClockMHz float64 // memory clock; data rate is 2x (DDR)
	TRCDRD   int     // ACT to RD
	TRCDWR   int     // ACT to WR
	TRP      int     // PRE to ACT
	TRAS     int     // ACT to PRE
	TCCDL    int     // RD-to-RD same bank group
	TCCDS    int     // RD-to-RD different bank group
	TRTW     int     // read-to-write turnaround
	TWTR     int     // write-to-read turnaround
	TBurst   int     // data transfer cycles per 256-bit word (BL4 on 64b bus = 2)
	TRFCNs   float64 // refresh cycle time, ns
	TREFINs  float64 // refresh interval, ns
}

// DefaultTiming is an HBM2-1600/1700-class parameter set. The clock is
// chosen so that 32 pseudo channels × 64 bit × 2 × clock equals the
// 429 GB/s theoretical bandwidth the paper quotes for the VCU128.
func DefaultTiming() Timing {
	return Timing{
		ClockMHz: 838,
		TRCDRD:   12,
		TRCDWR:   8,
		TRP:      12,
		TRAS:     28,
		TCCDL:    3,
		TCCDS:    2,
		TRTW:     6,
		TWTR:     7,
		TBurst:   2,
		TRFCNs:   260,
		TREFINs:  3900,
	}
}

// Validate checks the parameter set.
func (t Timing) Validate() error {
	switch {
	case t.ClockMHz <= 0:
		return fmt.Errorf("dramctl: ClockMHz %v must be positive", t.ClockMHz)
	case t.TBurst <= 0:
		return fmt.Errorf("dramctl: TBurst must be positive")
	case t.TRCDRD < 0 || t.TRCDWR < 0 || t.TRP < 0 || t.TRAS < 0:
		return fmt.Errorf("dramctl: negative bank timing")
	case t.TCCDL < t.TCCDS:
		return fmt.Errorf("dramctl: TCCDL %d below TCCDS %d", t.TCCDL, t.TCCDS)
	case t.TRFCNs <= 0 || t.TREFINs <= 0 || t.TRFCNs >= t.TREFINs:
		return fmt.Errorf("dramctl: refresh timing inconsistent")
	}
	return nil
}

// PeakBandwidthGBs returns the pin bandwidth of one 64-bit pseudo
// channel.
func (t Timing) PeakBandwidthGBs() float64 {
	return t.ClockMHz * 1e6 * 2 * 8 / 1e9 // 2 transfers/clock x 8 bytes
}

// cyclesPerRefresh returns (tRFC, tREFI) in clock cycles.
func (t Timing) cyclesPerRefresh() (rfc, refi float64) {
	perNs := t.ClockMHz * 1e-3 // cycles per ns
	return t.TRFCNs * perNs, t.TREFINs * perNs
}

// Geometry describes the addressed array as the controller sees it.
type Geometry struct {
	BankGroups    int
	BanksPerGroup int
	WordsPerRow   uint64
}

// DefaultGeometry matches internal/hbm's organization.
var DefaultGeometry = Geometry{BankGroups: 4, BanksPerGroup: 4, WordsPerRow: 32}

// Op is a memory operation type.
type Op uint8

const (
	// Read moves a 256-bit word from the array to the bus.
	Read Op = iota
	// Write moves a 256-bit word from the bus to the array.
	Write
)

// Controller simulates command timing for one pseudo channel.
type Controller struct {
	t   Timing
	g   Geometry
	now float64 // current cycle

	banks []bankState
	// busFree is the cycle the shared data bus becomes free.
	busFree float64
	// lastOp/lastGroup track turnaround penalties.
	lastOp    Op
	hasLast   bool
	lastGroup int
	// nextRefresh is the cycle of the next all-bank refresh.
	nextRefresh float64

	stats Stats
}

type bankState struct {
	openRow  int64 // -1 = precharged
	readyAt  float64
	actAt    float64 // cycle of last ACT, for tRAS
	everOpen bool
}

// Stats aggregates what the controller did.
type Stats struct {
	Accesses   uint64
	RowHits    uint64
	RowMisses  uint64
	Refreshes  uint64
	DataCycles float64
	// Cycles is total elapsed cycles from first to last access.
	Cycles float64
}

// BusUtilization is the fraction of elapsed cycles the data bus carried
// data.
func (s Stats) BusUtilization() float64 {
	if s.Cycles == 0 {
		return 0
	}
	return s.DataCycles / s.Cycles
}

// RowHitRate is the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(s.Accesses)
}

// New builds a controller.
func New(t Timing, g Geometry) (*Controller, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if g.BankGroups <= 0 || g.BanksPerGroup <= 0 || g.WordsPerRow == 0 {
		return nil, fmt.Errorf("dramctl: invalid geometry %+v", g)
	}
	c := &Controller{t: t, g: g}
	c.banks = make([]bankState, g.BankGroups*g.BanksPerGroup)
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	_, refi := t.cyclesPerRefresh()
	c.nextRefresh = refi
	return c, nil
}

// decode splits a word address into (bank index, row, bank group). The
// mapping interleaves bank groups at word granularity — the arrangement
// the Xilinx HBM IP uses so that sequential streams dodge the tCCD_L
// same-group penalty — then walks columns, banks within a group, and
// finally rows.
func (c *Controller) decode(addr uint64) (bank int, row int64, group int) {
	bg := int(addr % uint64(c.g.BankGroups))
	rest := addr / uint64(c.g.BankGroups)
	blk := rest / c.g.WordsPerRow
	inGroup := int(blk % uint64(c.g.BanksPerGroup))
	row = int64(blk / uint64(c.g.BanksPerGroup))
	return inGroup*c.g.BankGroups + bg, row, bg
}

// Access schedules one 256-bit operation at addr and returns its
// completion cycle. Bank preparation (precharge/activate) proceeds on
// each bank's own timeline and overlaps with other banks' data
// transfers; only the column data phase serializes on the shared bus.
func (c *Controller) Access(addr uint64, op Op) float64 {
	c.refreshIfDue()
	bank, row, group := c.decode(addr)
	b := &c.banks[bank]

	// Earliest cycle the bank can issue the column command.
	avail := b.readyAt
	if b.everOpen && b.openRow == row {
		c.stats.RowHits++
	} else {
		c.stats.RowMisses++
		if b.everOpen {
			// Precharge no earlier than tRAS after activation.
			preAt := b.actAt + float64(c.t.TRAS)
			if preAt < avail {
				preAt = avail
			}
			avail = preAt + float64(c.t.TRP)
		}
		b.actAt = avail
		b.openRow = row
		b.everOpen = true
		if op == Read {
			avail += float64(c.t.TRCDRD)
		} else {
			avail += float64(c.t.TRCDWR)
		}
	}

	// Shared-bus contention and command spacing.
	start := avail
	if c.hasLast {
		gap := float64(c.t.TCCDS)
		if group == c.lastGroup {
			gap = float64(c.t.TCCDL)
		}
		if c.lastOp != op {
			if op == Write {
				gap = float64(c.t.TRTW)
			} else {
				gap = float64(c.t.TWTR)
			}
		}
		if min := c.busFree - float64(c.t.TBurst) + gap; start < min {
			start = min
		}
	}
	if start < c.busFree {
		start = c.busFree
	}

	done := start + float64(c.t.TBurst)
	c.busFree = done
	ccd := float64(c.t.TCCDL)
	if ccd < float64(c.t.TBurst) {
		ccd = float64(c.t.TBurst)
	}
	b.readyAt = start + ccd
	c.now = done
	c.hasLast = true
	c.lastOp = op
	c.lastGroup = group

	c.stats.Accesses++
	c.stats.DataCycles += float64(c.t.TBurst)
	c.stats.Cycles = done
	return done
}

// refreshIfDue stalls everything for tRFC when the refresh interval
// elapses.
func (c *Controller) refreshIfDue() {
	rfc, refi := c.t.cyclesPerRefresh()
	for c.now >= c.nextRefresh || c.busFree >= c.nextRefresh {
		end := c.nextRefresh + rfc
		if c.now < end {
			c.now = end
		}
		if c.busFree < end {
			c.busFree = end
		}
		for i := range c.banks {
			c.banks[i].openRow = -1
			c.banks[i].everOpen = false
			if c.banks[i].readyAt < end {
				c.banks[i].readyAt = end
			}
		}
		c.stats.Refreshes++
		c.nextRefresh += refi
	}
}

// Stats returns a copy of the accumulated statistics.
func (c *Controller) Stats() Stats { return c.stats }

// ElapsedSeconds converts the controller's elapsed cycles to seconds.
func (c *Controller) ElapsedSeconds() float64 {
	return c.stats.Cycles / (c.t.ClockMHz * 1e6)
}

// SustainedBandwidthGBs runs n sequential word operations from base and
// reports the sustained bandwidth in GB/s. It is the number the AXI
// layer compares its own clock-limited rate against.
func SustainedBandwidthGBs(t Timing, g Geometry, n uint64, op Op) (float64, Stats, error) {
	c, err := New(t, g)
	if err != nil {
		return 0, Stats{}, err
	}
	for addr := uint64(0); addr < n; addr++ {
		c.Access(addr, op)
	}
	sec := c.ElapsedSeconds()
	if sec == 0 {
		return 0, c.stats, nil
	}
	bytes := float64(n) * 32
	return bytes / sec / 1e9, c.stats, nil
}
