// Package axi models the user-side interface of the Xilinx HBM IP: 32
// AXI ports of 256 bits (16 per stack), each hard-wired to one 64-bit
// pseudo channel (§II-B). A port carries word traffic and the ranged
// fill and read-check of Algorithm 1.
//
// Each AXI port runs at a quarter of the memory data-transfer rate (the
// 4:1 width ratio), so one 256-bit beat per AXI clock saturates a pseudo
// channel. The port clock is set so that all 32 ports together reach the
// paper's achieved 310 GB/s of the 429 GB/s theoretical: the FPGA
// fabric, not the DRAM, limits the experiment's operating point.
package axi

import (
	"fmt"

	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
)

// DefaultClockMHz is the per-port AXI clock: 32 ports x 32 B x
// 302.7 MHz ≈ 310 GB/s, the throughput the paper reaches.
const DefaultClockMHz = 302.7

// Switch models the HBM IP's optional switching network. The paper
// keeps it disabled, since it would distort the measurements; every port
// then maps to its own pseudo channel. Enabling it costs bandwidth.
type Switch struct {
	// Enabled turns the network (and its cost) on.
	Enabled bool
	// BandwidthPenalty is the fraction of port bandwidth lost when the
	// switch is enabled.
	BandwidthPenalty float64
}

// MaxPorts mirrors hbm.MaxPorts for convenience.
const MaxPorts = hbm.MaxPorts

// NewSwitch returns a disabled switch with the bandwidth penalty of the
// Xilinx IP (≈30%).
func NewSwitch() *Switch {
	return &Switch{BandwidthPenalty: 0.30}
}

// Throughput derates a base bandwidth for the switch state.
func (s *Switch) Throughput(base float64) float64 {
	if !s.Enabled {
		return base
	}
	return base * (1 - s.BandwidthPenalty)
}

// Port is one 256-bit AXI master interface.
type Port struct {
	id      hbm.PortID
	dev     *hbm.Device
	sw      *Switch
	enabled bool
}

// NewPort builds port id over the device, behind sw (which may be nil
// for a disabled switch).
func NewPort(id hbm.PortID, dev *hbm.Device, sw *Switch) (*Port, error) {
	if int(id) < 0 || int(id) >= dev.Org.TotalPCs() {
		return nil, fmt.Errorf("axi: port %d out of range", id)
	}
	if sw == nil {
		sw = NewSwitch()
	}
	return &Port{id: id, dev: dev, sw: sw, enabled: true}, nil
}

// ID returns the port index.
func (p *Port) ID() hbm.PortID { return p.id }

// Enabled reports whether the port participates in traffic (the paper
// disables ports to scale bandwidth utilization).
func (p *Port) Enabled() bool { return p.enabled }

// SetEnabled switches the port on or off.
func (p *Port) SetEnabled(on bool) { p.enabled = on }

// target resolves the (stack, pc) this port is wired to.
func (p *Port) target() (*hbm.Stack, int, error) {
	return p.dev.Port(p.id)
}

// WriteWord issues one 256-bit write beat.
func (p *Port) WriteWord(addr uint64, w pattern.Word) error {
	if !p.enabled {
		return fmt.Errorf("axi: port %d disabled", p.id)
	}
	st, pc, err := p.target()
	if err != nil {
		return err
	}
	return st.WriteWord(pc, addr, w)
}

// ReadWord issues one 256-bit read beat.
func (p *Port) ReadWord(addr uint64) (pattern.Word, error) {
	if !p.enabled {
		return pattern.Word{}, fmt.Errorf("axi: port %d disabled", p.id)
	}
	st, pc, err := p.target()
	if err != nil {
		return pattern.Word{}, err
	}
	return st.ReadWord(pc, addr)
}

// WriteRange issues count sequential write beats from start as one bulk
// transaction: one target resolution, one ranged store.
func (p *Port) WriteRange(start, count uint64, pat pattern.Pattern) error {
	if !p.enabled {
		return fmt.Errorf("axi: port %d disabled", p.id)
	}
	st, pc, err := p.target()
	if err != nil {
		return err
	}
	return st.WriteRange(pc, start, count, pat)
}

// ReadCheckRange reads count beats from start and compares them against
// pat in one bulk transaction, returning the flip classification and the
// faulty-word count.
func (p *Port) ReadCheckRange(start, count uint64, pat pattern.Pattern) (pattern.Flips, uint64, error) {
	if !p.enabled {
		return pattern.Flips{}, 0, fmt.Errorf("axi: port %d disabled", p.id)
	}
	st, pc, err := p.target()
	if err != nil {
		return pattern.Flips{}, 0, err
	}
	return st.ReadCheckRange(pc, start, count, pat)
}

// EffectiveBandwidthGBs returns the port's sustainable bandwidth: one
// 32-byte beat per AXI clock, derated by the switch. The DRAM behind the
// port could sustain more (see docs/CLAIMS.md), so the clock is the
// limit.
func (p *Port) EffectiveBandwidthGBs() float64 {
	return p.sw.Throughput(DefaultClockMHz * 1e6 * 32 / 1e9)
}
