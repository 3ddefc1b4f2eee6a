package hbm

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"hbmvolt/internal/faults"
	"hbmvolt/internal/pattern"
)

// ErrCrashed is returned by memory operations after the stack has stopped
// responding (supply driven below V_critical). Matching the paper's
// observation, restoring the voltage does not clear the condition; only
// PowerCycle does.
var ErrCrashed = errors.New("hbm: stack crashed (supply fell below V_critical); power cycle required")

// ErrOutOfRange is returned for word addresses beyond the pseudo
// channel's capacity.
var ErrOutOfRange = errors.New("hbm: word address out of range")

// Stack models one HBM stack: 16 pseudo channels behind a shared supply
// rail. Reads see the voltage-dependent stuck-bit overlay from the fault
// model; writes to stuck cells are silently absorbed (the cell keeps
// reading its stuck value until the voltage rises above its critical
// point again).
//
// Locking: stack-level state (voltage, crash latch, batch rep) is under
// an RWMutex taken for reading by every access, so the 16 pseudo
// channels can be driven concurrently — each channel's memory and fault
// sampler are guarded by their own mutex, matching the hardware's
// independent-PC concurrency.
type Stack struct {
	id  int
	org Organization
	fm  *faults.Model

	mu       sync.RWMutex // guards volts, crashed, batchRep
	volts    float64
	crashed  bool
	batchRep uint64

	pcs      []*pseudoChannel
	readOps  atomic.Uint64
	writeOps atomic.Uint64
}

type pseudoChannel struct {
	pc      int
	mu      sync.Mutex
	mem     *pagedMemory
	sampler *faults.Sampler
	// samplerV/samplerRep identify the state the cached sampler was
	// built for.
	samplerV   float64
	samplerRep uint64
}

// ensureSampler returns the cached fault sampler for (volts, rep),
// rebuilding it when the rail state moved. Callers hold ch.mu.
func (s *Stack) ensureSampler(ch *pseudoChannel, volts float64, rep uint64) *faults.Sampler {
	if ch.sampler == nil || ch.samplerV != volts || ch.samplerRep != rep {
		ch.sampler = s.fm.NewBatchSampler(s.id, ch.pc, volts, rep)
		ch.samplerV, ch.samplerRep = volts, rep
	}
	return ch.sampler
}

// NewStack builds stack id (0 or 1) over the given fault model. The fault
// model's geometry must match org.
func NewStack(id int, org Organization, fm *faults.Model) (*Stack, error) {
	if err := org.Validate(); err != nil {
		return nil, err
	}
	if id < 0 || id >= org.Stacks {
		return nil, fmt.Errorf("hbm: stack id %d out of range", id)
	}
	g := fm.Geometry()
	if g.WordsPerPC != org.WordsPerPC || g.WordsPerRow != org.WordsPerRow {
		return nil, fmt.Errorf("hbm: fault-model geometry %+v does not match organization", g)
	}
	s := &Stack{id: id, org: org, fm: fm, volts: faults.VNom}
	s.pcs = make([]*pseudoChannel, org.PCsPerStack())
	for i := range s.pcs {
		s.pcs[i] = &pseudoChannel{pc: i, mem: newPagedMemory(org.WordsPerPC)}
	}
	return s, nil
}

// ID returns the stack index (0 = HBM0, 1 = HBM1).
func (s *Stack) ID() int { return s.id }

// Organization returns the stack's geometry.
func (s *Stack) Organization() Organization { return s.org }

// SetVoltage applies a new supply voltage. Driving the rail below
// V_critical latches the crash state.
func (s *Stack) SetVoltage(v float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.volts = v
	if v < faults.VCritical {
		s.crashed = true
	}
}

// Voltage returns the present supply voltage.
func (s *Stack) Voltage() float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.volts
}

// Crashed reports whether the stack has stopped responding.
func (s *Stack) Crashed() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.crashed
}

// SetBatchRep selects the batch repetition whose metastability
// realization subsequent reads observe (Algorithm 1 increments this per
// batch iteration). Rep 0 is the default realization.
func (s *Stack) SetBatchRep(rep uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.batchRep = rep
}

// PowerCycle models a full power-down and restart: the crash latch
// clears and, DRAM being volatile, all contents are lost (reset to
// zero). The supply returns to whatever the rail provides; callers
// should re-program the regulator afterwards.
func (s *Stack) PowerCycle() {
	s.mu.Lock()
	s.crashed = false
	s.volts = faults.VNom
	s.mu.Unlock()
	for _, pc := range s.pcs {
		pc.mu.Lock()
		pc.mem.Fill(pattern.AllZerosWord)
		pc.sampler = nil
		pc.mu.Unlock()
	}
}

// state snapshots the rail condition for one access.
func (s *Stack) state() (volts float64, rep uint64, err error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.crashed {
		return 0, 0, ErrCrashed
	}
	return s.volts, s.batchRep, nil
}

func (s *Stack) channel(pc int, addr uint64) (*pseudoChannel, error) {
	if pc < 0 || pc >= len(s.pcs) {
		return nil, fmt.Errorf("hbm: pseudo channel %d out of range", pc)
	}
	if addr >= s.org.WordsPerPC {
		return nil, fmt.Errorf("%w: word %d of %d", ErrOutOfRange, addr, s.org.WordsPerPC)
	}
	return s.pcs[pc], nil
}

// WriteWord stores a 256-bit word at the PC-relative word address.
func (s *Stack) WriteWord(pc int, addr uint64, w pattern.Word) error {
	if _, _, err := s.state(); err != nil {
		return err
	}
	ch, err := s.channel(pc, addr)
	if err != nil {
		return err
	}
	ch.mu.Lock()
	ch.mem.Write(addr, w)
	ch.mu.Unlock()
	s.writeOps.Add(1)
	return nil
}

// ReadWord loads the 256-bit word at the PC-relative word address,
// applying the stuck-bit overlay for the present supply voltage.
func (s *Stack) ReadWord(pc int, addr uint64) (pattern.Word, error) {
	volts, rep, err := s.state()
	if err != nil {
		return pattern.Word{}, err
	}
	ch, err := s.channel(pc, addr)
	if err != nil {
		return pattern.Word{}, err
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	w := ch.mem.Read(addr)
	s.readOps.Add(1)
	s.ensureSampler(ch, volts, rep)
	if ch.sampler.MightFault() {
		w = faults.Overlay(w, ch.sampler.WordFaults(addr, nil))
	}
	return w, nil
}

// channelRange validates a [start, start+count) window on pc.
func (s *Stack) channelRange(pc int, start, count uint64) (*pseudoChannel, error) {
	if pc < 0 || pc >= len(s.pcs) {
		return nil, fmt.Errorf("hbm: pseudo channel %d out of range", pc)
	}
	if start > s.org.WordsPerPC || count > s.org.WordsPerPC-start {
		return nil, fmt.Errorf("%w: words [%d,%d) of %d", ErrOutOfRange, start, start+count, s.org.WordsPerPC)
	}
	return s.pcs[pc], nil
}

// WriteRange stores pat's words over [start, start+count) of the pseudo
// channel, taking the channel lock once. Uniform patterns splice the
// sparse store's fill runs — O(allocated pages + fill runs) regardless
// of count; address-dependent patterns fall back to word-by-word stores
// under the single lock.
func (s *Stack) WriteRange(pc int, start, count uint64, pat pattern.Pattern) error {
	if _, _, err := s.state(); err != nil {
		return err
	}
	ch, err := s.channelRange(pc, start, count)
	if err != nil {
		return err
	}
	ch.mu.Lock()
	if w, ok := pattern.UniformWord(pat); ok {
		ch.mem.WriteUniform(start, count, w)
	} else {
		for a := start; a < start+count; a++ {
			ch.mem.Write(a, pat.Word(a))
		}
	}
	ch.mu.Unlock()
	s.writeOps.Add(count)
	return nil
}

// ReadRange models reading [start, start+count) without checking the
// data (bandwidth traffic): it validates the access and counts the
// words, but skips materializing values nobody observes.
func (s *Stack) ReadRange(pc int, start, count uint64) error {
	if _, _, err := s.state(); err != nil {
		return err
	}
	if _, err := s.channelRange(pc, start, count); err != nil {
		return err
	}
	s.readOps.Add(count)
	return nil
}

// ReadCheckRange reads [start, start+count) back and compares every
// word against pat, returning the total flip classification and the
// number of words with at least one flipped bit. It is the bulk
// equivalent of ReadWord+Compare per address, with the channel lock
// taken once. A fill run that stores pat's own uniform word — every
// run of a FillCheckProgram — is counted by the sampler's CountFlips,
// the counter every Algorithm 1 sweep uses, so the board and a sweep
// of the same point report one device: identical counts in both fault
// modes. Every other run (page-backed words, an address-dependent
// pattern, a fill that differs from pat) is read word by word over the
// range enumerator's faulted words, identical to the per-word loop.
func (s *Stack) ReadCheckRange(pc int, start, count uint64, pat pattern.Pattern) (pattern.Flips, uint64, error) {
	volts, rep, err := s.state()
	if err != nil {
		return pattern.Flips{}, 0, err
	}
	ch, err := s.channelRange(pc, start, count)
	if err != nil {
		return pattern.Flips{}, 0, err
	}
	ch.mu.Lock()
	defer ch.mu.Unlock()
	sampler := s.ensureSampler(ch, volts, rep)
	s.readOps.Add(count)

	var flips pattern.Flips
	var faulty uint64
	uniformPat, uniformOK := pattern.UniformWord(pat)
	pats, out := []pattern.Pattern{pat}, make([]faults.PatternCount, 1)
	ch.mem.Runs(start, count, func(runStart, runCount uint64, words []pattern.Word, fill pattern.Word) {
		if uniformOK && words == nil && fill == uniformPat {
			// A uniform pattern has a known ones density, so the count
			// is complete and the result needs no check.
			sampler.CountFlips(runStart, runCount, pats, out)
			flips.Add(out[0].Flips)
			faulty += out[0].Faulty
			return
		}
		// Word-by-word fallback. Faults still arrive pre-aggregated from
		// the range enumerator, so clean words cost a compare, not 256
		// hashes.
		readAt := func(a uint64) pattern.Word {
			if words != nil {
				return words[a-runStart]
			}
			return fill
		}
		check := func(a uint64, w pattern.Word) {
			f := pattern.Compare(pat.Word(a), w)
			if f.Total() > 0 {
				faulty++
				flips.Add(f)
			}
		}
		next := runStart
		sampler.RangeFaultWords(runStart, runCount, func(addr uint64, fs []faults.CellFault) {
			for a := next; a < addr; a++ {
				check(a, readAt(a))
			}
			check(addr, faults.Overlay(readAt(addr), fs))
			next = addr + 1
		})
		for a := next; a < runStart+runCount; a++ {
			check(a, readAt(a))
		}
	})
	return flips, faulty, nil
}

// FillPC resets an entire pseudo channel to the given word, modelling the
// O(n) sequential write pass of Algorithm 1 without materializing pages.
// It respects crash state like any other access.
func (s *Stack) FillPC(pc int, w pattern.Word) error {
	if _, _, err := s.state(); err != nil {
		return err
	}
	ch, err := s.channel(pc, 0)
	if err != nil {
		return err
	}
	ch.mu.Lock()
	ch.mem.Fill(w)
	ch.mu.Unlock()
	s.writeOps.Add(s.org.WordsPerPC)
	return nil
}

// Counters returns the cumulative read and write word counts (telemetry
// for the host controller).
func (s *Stack) Counters() (reads, writes uint64) {
	return s.readOps.Load(), s.writeOps.Load()
}

// AllocatedPages reports the number of materialized memory pages across
// all pseudo channels (test observability for the sparse store).
func (s *Stack) AllocatedPages() int {
	n := 0
	for _, pc := range s.pcs {
		pc.mu.Lock()
		n += pc.mem.AllocatedPages()
		pc.mu.Unlock()
	}
	return n
}

// Device bundles the platform's HBM stacks and resolves AXI ports to
// pseudo channels.
type Device struct {
	Org    Organization
	Stacks []*Stack
}

// NewDevice builds all stacks of the organization over one fault model.
func NewDevice(org Organization, fm *faults.Model) (*Device, error) {
	d := &Device{Org: org}
	for i := 0; i < org.Stacks; i++ {
		s, err := NewStack(i, org, fm)
		if err != nil {
			return nil, err
		}
		d.Stacks = append(d.Stacks, s)
	}
	return d, nil
}

// Port resolves an AXI port to its stack and pseudo channel.
func (d *Device) Port(p PortID) (*Stack, int, error) {
	stack, pc := p.StackPC(d.Org)
	if stack < 0 || stack >= len(d.Stacks) {
		return nil, 0, fmt.Errorf("hbm: port %d out of range", p)
	}
	return d.Stacks[stack], pc, nil
}

// SetVoltage drives every stack's rail (they share the VCC_HBM supply on
// the VCU128).
func (d *Device) SetVoltage(v float64) {
	for _, s := range d.Stacks {
		s.SetVoltage(v)
	}
}

// PowerCycle power-cycles every stack.
func (d *Device) PowerCycle() {
	for _, s := range d.Stacks {
		s.PowerCycle()
	}
}

// SetBatchRep selects the metastability realization on every stack.
func (d *Device) SetBatchRep(rep uint64) {
	for _, s := range d.Stacks {
		s.SetBatchRep(rep)
	}
}

// Crashed reports whether any stack has crashed.
func (d *Device) Crashed() bool {
	for _, s := range d.Stacks {
		if s.Crashed() {
			return true
		}
	}
	return false
}
