// Package board assembles the paper's test platform (§II-B): a VCU128
// evaluation board with two HBM stacks behind a shared VCC_HBM rail, an
// ISL68301 PMBus regulator driving that rail, an INA226 monitor sensing
// it, and 32 AXI ports (16 per stack).
//
// The board couples the electrical and functional models: programming
// the regulator moves the stacks' supply (changing their fault
// behaviour), the stacks' stuck-cell population derates the power
// model's active capacitance, and the monitor reads the resulting watts
// back through its register pipeline — the same loop the paper's host
// software closes over PMBus. The power sweep and the examples drive
// this loop; Algorithm 1 sweeps and the guardband search read the
// board's fault model alone (internal/core) and never program it.
package board

import (
	"fmt"

	"hbmvolt/internal/axi"
	"hbmvolt/internal/dramctl"
	"hbmvolt/internal/faults"
	"hbmvolt/internal/hbm"
	"hbmvolt/internal/ina226"
	"hbmvolt/internal/pmbus"
	"hbmvolt/internal/power"
)

// Config parameterizes a board build. The zero value gives the paper's
// platform at 1/1024 capacity scale (suitable for tests; pass Scale: 1
// for the full 8 GB).
type Config struct {
	// Seed drives every stochastic aspect (fault map, measurement noise).
	Seed uint64
	// Scale divides each pseudo channel's capacity (power of two). 0
	// means 1024 (8 MB device), keeping unit work cheap.
	Scale uint64
	// Temperature in °C (default 35, the paper's operating point).
	Temperature float64
	// Power overrides the power parameters (default power.DefaultParams).
	Power power.Params
	// NoiseSigma is the per-sample measurement noise of the monitor
	// chain; 0 disables noise (exact measurements).
	NoiseSigma float64
	// AXIClockMHz overrides the per-port AXI clock.
	AXIClockMHz float64
	// Timing overrides the DRAM timing model.
	Timing dramctl.Timing
	// SwitchEnabled turns the AXI switching network on (the paper keeps
	// it off).
	SwitchEnabled bool
	// SparseFaults selects the fault model's sparse enumeration mode:
	// full-capacity Algorithm 1 traffic costs O(#faults) instead of
	// O(bits). See faults.Config.SparseEnumeration for the trade-off.
	SparseFaults bool
	// Profiles optionally overrides the per-PC fault variation.
	Profiles *[faults.NumPCs]faults.PCProfile
}

// MaxHBMVoltage is the highest VCC_HBM the board programs: the
// ISL68301's VOUT_MAX. The regulator clamps a higher VOUT_COMMAND to
// it, so a sweep that asked for more would record one voltage and
// measure another.
const MaxHBMVoltage = 1.30

// Board is the assembled platform.
type Board struct {
	Org    hbm.Organization
	Faults *faults.Model
	Device *hbm.Device
	Power  *power.Model

	Bus       *pmbus.Bus
	Regulator *pmbus.ISL68301
	Monitor   *ina226.INA226
	Switch    *axi.Switch
	Ports     [hbm.MaxPorts]*axi.Port

	activePorts int
}

// FaultConfig returns the (default-filled) fault-model configuration a
// board built from cfg would carry — without building the board. Its
// Fingerprint is the analytic-rate cache key that board's model will
// memoize under, which is what result-caching services key sweep
// payloads by; keeping this the single constructor (New routes through
// it) guarantees the two can never diverge.
func FaultConfig(cfg Config) (faults.Config, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1024
	}
	org, err := hbm.Scaled(cfg.Scale)
	if err != nil {
		return faults.Config{}, err
	}
	fcfg := faults.DefaultConfig()
	fcfg.Seed = cfg.Seed
	if cfg.Temperature != 0 {
		fcfg.Temperature = cfg.Temperature
	}
	fcfg.Geometry = faults.Geometry{WordsPerPC: org.WordsPerPC, WordsPerRow: org.WordsPerRow}
	fcfg.SparseEnumeration = cfg.SparseFaults
	if cfg.Profiles != nil {
		fcfg.Profiles = *cfg.Profiles
	}
	return fcfg, nil
}

// New builds a board.
func New(cfg Config) (*Board, error) {
	if cfg.Scale == 0 {
		cfg.Scale = 1024
	}
	org, err := hbm.Scaled(cfg.Scale)
	if err != nil {
		return nil, err
	}
	fcfg, err := FaultConfig(cfg)
	if err != nil {
		return nil, err
	}
	fm, err := faults.New(fcfg)
	if err != nil {
		return nil, err
	}

	dev, err := hbm.NewDevice(org, fm)
	if err != nil {
		return nil, err
	}

	pp := cfg.Power
	if pp == (power.Params{}) {
		pp = power.DefaultParams()
	}
	pm, err := power.New(pp, func(v float64) float64 { return 1 - fm.GlobalStuckFraction(v) })
	if err != nil {
		return nil, err
	}

	b := &Board{Org: org, Faults: fm, Device: dev, Power: pm}

	b.Regulator = pmbus.NewISL68301(pmbus.ISLConfig{
		VoutMax:  MaxHBMVoltage,
		OnVout:   dev.SetVoltage,
		LoadAmps: b.railAmps,
	})
	b.Bus = pmbus.NewBus()
	if err := b.Bus.Attach(b.Regulator); err != nil {
		return nil, err
	}

	b.Monitor, err = ina226.New(ina226.Config{
		ShuntOhms:  0.002,
		Seed:       cfg.Seed ^ 0xd1e,
		NoiseSigma: cfg.NoiseSigma,
		Rail: func() (float64, float64) {
			v := b.Regulator.Vout()
			return v, b.railAmps(v)
		},
	})
	if err != nil {
		return nil, err
	}
	cal, err := ina226.CalibrationFor(25, 0.002)
	if err != nil {
		return nil, err
	}
	if err := b.Monitor.WriteRegister(ina226.RegCalibration, cal); err != nil {
		return nil, err
	}
	// 16-sample hardware averaging, matching a telemetry-grade setup.
	if err := b.Monitor.WriteRegister(ina226.RegConfig, 0x4127|2<<9); err != nil {
		return nil, err
	}

	b.Switch = axi.NewSwitch()
	b.Switch.Enabled = cfg.SwitchEnabled
	pcfg := axi.PortConfig{ClockMHz: cfg.AXIClockMHz, Timing: cfg.Timing}
	for i := range b.Ports {
		p, err := axi.NewPort(hbm.PortID(i), dev, b.Switch, pcfg)
		if err != nil {
			return nil, err
		}
		b.Ports[i] = p
	}
	b.activePorts = hbm.MaxPorts
	return b, nil
}

// MustNew is New but panics on error.
func MustNew(cfg Config) *Board {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// railAmps models the rail's current draw at voltage v given how many
// ports are actively generating traffic.
func (b *Board) railAmps(v float64) float64 {
	return b.Power.Amps(v, b.Utilization())
}

// Utilization returns the bandwidth utilization implied by the active
// port count.
func (b *Board) Utilization() float64 {
	return float64(b.activePorts) / float64(hbm.MaxPorts)
}

// SetActivePorts enables the first n ports and disables the rest; n also
// sets the utilization the rail model sees. The paper scales bandwidth
// exactly this way — by disabling AXI ports.
func (b *Board) SetActivePorts(n int) error {
	if n < 0 || n > hbm.MaxPorts {
		return fmt.Errorf("board: active port count %d out of [0,%d]", n, hbm.MaxPorts)
	}
	for i, p := range b.Ports {
		p.SetEnabled(i < n)
	}
	b.activePorts = n
	return nil
}

// ActivePorts returns the number of traffic-generating ports.
func (b *Board) ActivePorts() int { return b.activePorts }

// voutExp is the regulator's VOUT_MODE exponent (244 µV LSB).
const voutExp = -12

// voutCommand encodes volts as the VOUT_COMMAND word the board writes,
// refusing a voltage above MaxHBMVoltage rather than letting the
// regulator clamp it.
func voutCommand(volts float64) (uint16, error) {
	if volts > MaxHBMVoltage {
		return 0, fmt.Errorf("board: HBM voltage %vV above the regulator's VOUT_MAX %.2fV", volts, MaxHBMVoltage)
	}
	return pmbus.Linear16(volts, voutExp)
}

// RailVoltage returns the rail voltage SetHBMVoltage(volts) drives the
// stacks to: volts quantized through LINEAR16 and capped at VOUT_MAX,
// with the same refusals. The stacks crash iff it is below
// faults.VCritical; the regulator's under-voltage latch trips only
// below that, so it never changes which points crash.
func RailVoltage(volts float64) (float64, error) {
	w, err := voutCommand(volts)
	if err != nil {
		return 0, err
	}
	return min(pmbus.FromLinear16(w, voutExp), MaxHBMVoltage), nil
}

// SetHBMVoltage programs the regulator over PMBus. The voltage reaches
// the stacks through the rail coupling; driving it below the HBM's
// V_critical crashes the memory exactly as on the real board. A voltage
// above MaxHBMVoltage is refused rather than clamped by the regulator.
func (b *Board) SetHBMVoltage(volts float64) error {
	w, err := voutCommand(volts)
	if err != nil {
		return err
	}
	return b.Bus.WriteWord(b.Regulator.Address(), pmbus.CmdVoutCommand, w)
}

// HBMVoltage reads the rail voltage back over PMBus.
func (b *Board) HBMVoltage() (float64, error) {
	w, err := b.Bus.ReadWord(b.Regulator.Address(), pmbus.CmdReadVout)
	if err != nil {
		return 0, err
	}
	return pmbus.FromLinear16(w, voutExp), nil
}

// MeasurePower reads the INA226 power register (watts).
func (b *Board) MeasurePower() (float64, error) {
	return b.Monitor.PowerWatts()
}

// MeasureVoltageCurrent reads bus voltage and current from the monitor.
func (b *Board) MeasureVoltageCurrent() (volts, amps float64, err error) {
	volts, err = b.Monitor.BusVolts()
	if err != nil {
		return 0, 0, err
	}
	amps, err = b.Monitor.CurrentAmps()
	return volts, amps, err
}

// Crashed reports whether the HBM device has stopped responding.
func (b *Board) Crashed() bool { return b.Device.Crashed() }

// PowerCycle performs the full recovery the paper describes for a
// crashed device: power down (OPERATION off), restart the memory, clear
// regulator faults, and restore nominal voltage.
func (b *Board) PowerCycle() error {
	if err := b.Bus.WriteByteData(b.Regulator.Address(), pmbus.CmdOperation, pmbus.OperationOff); err != nil {
		return err
	}
	if err := b.Bus.SendByte(b.Regulator.Address(), pmbus.CmdClearFaults); err != nil {
		return err
	}
	// Re-program nominal voltage while the output is off, so the rail
	// comes back at V_nom and not at the last (possibly sub-critical)
	// command value.
	if err := b.SetHBMVoltage(faults.VNom); err != nil {
		return err
	}
	if err := b.Bus.WriteByteData(b.Regulator.Address(), pmbus.CmdOperation, pmbus.OperationOn); err != nil {
		return err
	}
	// Restart the memory last: restoring the supply alone does not
	// un-crash the stacks (§III-B) — the explicit restart does.
	b.Device.PowerCycle()
	return nil
}

// AggregateBandwidthGBs sums the effective bandwidth of the active
// ports.
func (b *Board) AggregateBandwidthGBs() float64 {
	sum := 0.0
	for _, p := range b.Ports {
		if p.Enabled() {
			sum += p.EffectiveBandwidthGBs()
		}
	}
	return sum
}
