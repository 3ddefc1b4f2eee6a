// Package axi models the user-side interface of the Xilinx HBM IP: 32
// AXI ports of 256 bits (16 per stack), each hard-wired to one 64-bit
// pseudo channel through an optional switching network (§II-B). A port
// carries word traffic and the ranged fill and read-check of
// Algorithm 1.
//
// Each AXI port runs at a quarter of the memory data-transfer rate (the
// 4:1 width ratio), so one 256-bit beat per AXI clock saturates a pseudo
// channel. The default port clock is set so that all 32 ports together
// reach the paper's achieved 310 GB/s — the experiment's fabric-limited
// operating point — while the DRAM-side timing model (internal/dramctl)
// confirms the memory itself could sustain more.
package axi

import (
	"errors"
	"fmt"

	"hbmvolt/internal/dramctl"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/pattern"
)

// DefaultClockMHz is the per-port AXI clock: 32 ports x 32 B x
// 302.7 MHz ≈ 310 GB/s, the throughput the paper reaches.
const DefaultClockMHz = 302.7

// Switch models the HBM IP's optional switching network. When disabled
// (the paper's configuration — it would otherwise distort the
// measurements) every port maps to its own pseudo channel. When enabled,
// arbitrary port→PC routes are allowed at a bandwidth penalty and extra
// latency.
type Switch struct {
	// Enabled activates routing (and its cost).
	Enabled bool
	// BandwidthPenalty is the fraction of port bandwidth lost when the
	// switch is enabled.
	BandwidthPenalty float64
	// ExtraLatencyCycles is added to every access when enabled.
	ExtraLatencyCycles int

	routes [hbm.MaxPorts]hbm.PortID
}

// MaxPorts mirrors hbm.MaxPorts for convenience.
const MaxPorts = hbm.MaxPorts

// NewSwitch returns a disabled switch with identity routing and the
// penalty parameters of the Xilinx IP (≈30% bandwidth loss, a few cycles
// of latency).
func NewSwitch() *Switch {
	s := &Switch{BandwidthPenalty: 0.30, ExtraLatencyCycles: 4}
	for i := range s.routes {
		s.routes[i] = hbm.PortID(i)
	}
	return s
}

// Route returns the pseudo channel (as a global PC id) the port reaches.
func (s *Switch) Route(port hbm.PortID) hbm.PortID {
	if !s.Enabled {
		return port
	}
	return s.routes[port]
}

// SetRoute points a port at an arbitrary pseudo channel; it requires the
// switch to be enabled.
func (s *Switch) SetRoute(port, pc hbm.PortID) error {
	if !s.Enabled {
		return errors.New("axi: switching network disabled; ports are hard-wired")
	}
	if int(port) >= MaxPorts || int(pc) >= MaxPorts || port < 0 || pc < 0 {
		return fmt.Errorf("axi: route %d->%d out of range", port, pc)
	}
	s.routes[port] = pc
	return nil
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
	id       hbm.PortID
	dev      *hbm.Device
	sw       *Switch
	clockMHz float64
	enabled  bool
	timing   dramctl.Timing
}

// PortConfig parameterizes a port.
type PortConfig struct {
	// ClockMHz is the AXI clock (DefaultClockMHz when zero).
	ClockMHz float64
	// Timing is the DRAM-side timing model (dramctl.DefaultTiming() when
	// zero-valued).
	Timing dramctl.Timing
}

// NewPort builds port id over the device, routed through sw (which may
// be nil for hard-wired operation).
func NewPort(id hbm.PortID, dev *hbm.Device, sw *Switch, cfg PortConfig) (*Port, error) {
	if int(id) < 0 || int(id) >= dev.Org.TotalPCs() {
		return nil, fmt.Errorf("axi: port %d out of range", id)
	}
	if cfg.ClockMHz == 0 {
		cfg.ClockMHz = DefaultClockMHz
	}
	if cfg.ClockMHz < 0 {
		return nil, fmt.Errorf("axi: negative clock")
	}
	if cfg.Timing.ClockMHz == 0 {
		cfg.Timing = dramctl.DefaultTiming()
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if sw == nil {
		sw = NewSwitch()
	}
	return &Port{
		id:       id,
		dev:      dev,
		sw:       sw,
		clockMHz: cfg.ClockMHz,
		enabled:  true,
		timing:   cfg.Timing,
	}, nil
}

// ID returns the port index.
func (p *Port) ID() hbm.PortID { return p.id }

// Enabled reports whether the port participates in traffic (the paper
// disables ports to scale bandwidth utilization).
func (p *Port) Enabled() bool { return p.enabled }

// SetEnabled switches the port on or off.
func (p *Port) SetEnabled(on bool) { p.enabled = on }

// ClockMHz returns the AXI clock.
func (p *Port) ClockMHz() float64 { return p.clockMHz }

// target resolves the (stack, pc) this port currently reaches.
func (p *Port) target() (*hbm.Stack, int, error) {
	return p.dev.Port(p.sw.Route(p.id))
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

// EffectiveBandwidthGBs returns the port's sustainable bandwidth: the
// AXI clock limit derated by the switch, never exceeding what the DRAM
// timing can deliver.
func (p *Port) EffectiveBandwidthGBs() float64 {
	axi := p.clockMHz * 1e6 * 32 / 1e9
	axi = p.sw.Throughput(axi)
	dram := p.timing.PeakBandwidthGBs() // upper bound; dramctl confirms ~90% sustained
	if axi > dram {
		return dram
	}
	return axi
}
