package snapshot

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"coarsegrain/internal/data"
	"coarsegrain/internal/layers"
	"coarsegrain/internal/net"
	"coarsegrain/internal/rng"
	"coarsegrain/internal/solver"
	"coarsegrain/internal/zoo"
)

// buildNet constructs a LeNet with a FIXED data stream and seed-dependent
// weights, so two nets with different seeds see the same batches but start
// from different parameters.
func buildNet(t *testing.T, seed uint64) *net.Net {
	t.Helper()
	src := data.NewSyntheticMNIST(128, 99)
	specs, err := zoo.LeNet(src, zoo.Options{BatchSize: 8, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New(specs, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestNetRoundTrip(t *testing.T) {
	a := buildNet(t, 1)
	var buf bytes.Buffer
	if err := SaveNet(&buf, a); err != nil {
		t.Fatal(err)
	}
	b := buildNet(t, 2) // different weights
	if err := LoadNet(&buf, b); err != nil {
		t.Fatal(err)
	}
	for i := range a.Params() {
		av, bv := a.Params()[i].Data(), b.Params()[i].Data()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("param %d differs after round trip", i)
			}
		}
	}
	// Same forward behaviour.
	if a.Forward() != b.Forward() {
		t.Fatal("restored net computes a different loss")
	}
}

// saveNetFile writes SaveNet's bytes to path through the package's atomic
// file writer.
func saveNetFile(path string, n *net.Net) error {
	return WriteFileAtomic(path, func(w io.Writer) error { return SaveNet(w, n) })
}

func TestNetFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "model.cgdnn")
	a := buildNet(t, 3)
	if err := saveNetFile(path, a); err != nil {
		t.Fatal(err)
	}
	b := buildNet(t, 4)
	if err := LoadNetFile(path, b); err != nil {
		t.Fatal(err)
	}
	if a.Params()[0].Data()[0] != b.Params()[0].Data()[0] {
		t.Fatal("file round trip lost data")
	}
}

func TestLoadRejectsCorruptInput(t *testing.T) {
	n := buildNet(t, 5)
	cases := [][]byte{
		nil,
		[]byte("XXXXX"),
		[]byte("CGDNN\x03"),                 // unsupported version
		[]byte("CGDNN\x00"),                 // version 0
		[]byte("CGDNN\x02"),                 // truncated after version
		[]byte("CGDNN\x01\xff\xff\xff\xff"), // huge count
		[]byte("CGDNN\x02\xff\xff\xff\xff"), // huge count, v2
		[]byte("CGDNN\x01\x01\x00\x00\x00\x05\x00"), // truncated name
		[]byte("CGDNN\x02\x01\x00\x00\x00\x05\x00"), // truncated name, v2
		// v2 section with a plausible body but a missing checksum.
		[]byte("CGDNN\x02\x01\x00\x00\x00\x01\x00x\x00"),
	}
	for i, c := range cases {
		if err := LoadNet(bytes.NewReader(c), n); err == nil {
			t.Fatalf("case %d: corrupt input accepted", i)
		}
	}
}

func TestLoadRejectsWrongArchitecture(t *testing.T) {
	a := buildNet(t, 6)
	var buf bytes.Buffer
	if err := SaveNet(&buf, a); err != nil {
		t.Fatal(err)
	}
	// A different architecture: conv-less tiny net.
	src := data.NewSyntheticMNIST(64, 6)
	specs, err := zoo.LeNet(src, zoo.Options{BatchSize: 4, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	specs = specs[:0:0]
	_ = specs
	// Easiest wrong-arch: rename a section. Encode as v1 (no checksums) so
	// the name-matching path is exercised, not the CRC.
	raw := writeSectionsV1(t, netSections(a))
	mut := bytes.Replace(raw, []byte("conv1[0]"), []byte("convX[0]"), 1)
	if err := LoadNet(bytes.NewReader(mut), a); err == nil {
		t.Fatal("renamed section accepted")
	} else if !strings.Contains(err.Error(), "missing parameter") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestSolverRoundTripResumesExactly(t *testing.T) {
	// Train 10 iterations, snapshot, train 10 more -> trace A.
	// Restore the snapshot into a fresh solver, train 10 -> must equal
	// the second half of trace A bit for bit (same data cursor is
	// achieved by rebuilding the net, whose data layer restarts, so we
	// snapshot at iteration 0 of a *fresh* epoch: use a dataset exactly
	// one batch long so the cursor position is always 0 at batch start).
	mk := func() (*net.Net, *solver.Solver) {
		src := data.NewSyntheticMNIST(8, 7) // one batch per epoch
		specs, err := zoo.LeNet(src, zoo.Options{BatchSize: 8, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		n, err := net.New(specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := solver.New(zoo.LeNetSolver(), n)
		if err != nil {
			t.Fatal(err)
		}
		return n, s
	}
	_, s1 := mk()
	s1.Step(10)
	var buf bytes.Buffer
	if err := SaveSolver(&buf, s1); err != nil {
		t.Fatal(err)
	}
	traceA := s1.Step(10)

	_, s2 := mk()
	if err := LoadSolver(bytes.NewReader(buf.Bytes()), s2); err != nil {
		t.Fatal(err)
	}
	if s2.Iter() != 10 {
		t.Fatalf("restored iter = %d, want 10", s2.Iter())
	}
	traceB := s2.Step(10)
	for i := range traceA {
		if traceA[i] != traceB[i] {
			t.Fatalf("resumed training diverged at step %d: %v vs %v", i, traceB[i], traceA[i])
		}
	}
}

func TestSolverFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "solver.cgdnn")
	_, s := func() (*net.Net, *solver.Solver) {
		n := buildNet(t, 8)
		s, err := solver.New(zoo.LeNetSolver(), n)
		if err != nil {
			t.Fatal(err)
		}
		return n, s
	}()
	s.Step(3)
	if err := SaveSolverFile(path, s); err != nil {
		t.Fatal(err)
	}
	n2 := buildNet(t, 9)
	s2, err := solver.New(zoo.LeNetSolver(), n2)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadSolverFile(path, s2); err != nil {
		t.Fatal(err)
	}
	if s2.Iter() != 3 {
		t.Fatalf("iter = %d", s2.Iter())
	}
}

// TestTruncatedFileErrorsNameFileAndSection cuts a solver snapshot at
// several points — inside the magic, the header, the first section's
// header and its payload, half way (which falls between two sections, the
// cut that once failed with a bare "EOF") and inside the last checksum —
// and requires
// every file-level load to fail with an error that names the file, and,
// past the header, the section it stopped in, by index and, once read, by
// name: a resume of a torn checkpoint must not end in a bare "EOF".
func TestTruncatedFileErrorsNameFileAndSection(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.cgdnn")
	n := buildNet(t, 8)
	s, err := solver.New(zoo.LeNetSolver(), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveSolverFile(full, s); err != nil {
		t.Fatal(err)
	}
	whole, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []struct {
		at      int
		section string // a substring the error must hold; "" for a header cut
	}{
		{3, ""},
		{8, ""},
		{12, "section 0"},
		{500, `section 0 ("conv1[0]"): reading payload`},
		{len(whole) / 2, `section `},
		{len(whole) - 2, `section `},
	} {
		path := filepath.Join(dir, "cut.cgdnn")
		if err := os.WriteFile(path, whole[:cut.at], 0o644); err != nil {
			t.Fatal(err)
		}
		_, peekErr := PeekSolverIter(path)
		for what, err := range map[string]error{
			"LoadSolverFile": LoadSolverFile(path, s),
			"LoadNetFile":    LoadNetFile(path, n),
			"PeekSolverIter": peekErr,
		} {
			if err == nil {
				t.Fatalf("%s of a file cut to %d of %d bytes succeeded", what, cut.at, len(whole))
			}
			msg := err.Error()
			if !strings.Contains(msg, path) || !strings.Contains(msg, cut.section) {
				t.Errorf("%s, cut at %d of %d bytes: %q names neither the file nor %q", what, cut.at, len(whole), msg, cut.section)
			}
		}
	}
}

func TestPeekSolverIterReadsWithoutASolver(t *testing.T) {
	// PeekSolverIter is what a resuming rank calls before it has built
	// anything: the iteration decides the data-cursor skip and the
	// StartIter of the whole group, so it must be readable from the
	// file alone.
	dir := t.TempDir()
	path := filepath.Join(dir, "solver.cgdnn")
	n := buildNet(t, 8)
	s, err := solver.New(zoo.LeNetSolver(), n)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(5)
	if err := SaveSolverFile(path, s); err != nil {
		t.Fatal(err)
	}
	it, err := PeekSolverIter(path)
	if err != nil {
		t.Fatal(err)
	}
	if it != 5 {
		t.Fatalf("peeked iteration %d, want 5", it)
	}

	netPath := filepath.Join(dir, "net.cgdnn")
	if err := saveNetFile(netPath, n); err != nil {
		t.Fatal(err)
	}
	if _, err := PeekSolverIter(netPath); err == nil {
		t.Fatal("peek accepted a net-only snapshot")
	}
	if _, err := PeekSolverIter(filepath.Join(dir, "missing.cgdnn")); err == nil {
		t.Fatal("peek accepted a missing file")
	}
}

func TestLoadSolverRejectsNetSnapshot(t *testing.T) {
	n := buildNet(t, 10)
	var buf bytes.Buffer
	if err := SaveNet(&buf, n); err != nil {
		t.Fatal(err)
	}
	s, err := solver.New(zoo.LeNetSolver(), n)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadSolver(&buf, s); err == nil {
		t.Fatal("net-only snapshot accepted as solver snapshot")
	}
}

func TestAdamSolverRoundTrip(t *testing.T) {
	mk := func() *solver.Solver {
		src := data.NewSyntheticMNIST(8, 12) // one batch per epoch
		specs, err := zoo.LeNet(src, zoo.Options{BatchSize: 8, Seed: 12})
		if err != nil {
			t.Fatal(err)
		}
		n, err := net.New(specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := solver.New(solver.Config{Type: solver.Adam, BaseLR: 0.001}, n)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s1 := mk()
	s1.Step(5)
	var buf bytes.Buffer
	if err := SaveSolver(&buf, s1); err != nil {
		t.Fatal(err)
	}
	traceA := s1.Step(5)

	s2 := mk()
	if err := LoadSolver(bytes.NewReader(buf.Bytes()), s2); err != nil {
		t.Fatal(err)
	}
	traceB := s2.Step(5)
	for i := range traceA {
		if traceA[i] != traceB[i] {
			t.Fatalf("adam resume diverged at %d: %v vs %v (second moments lost?)", i, traceB[i], traceA[i])
		}
	}
}

func TestLoadSolverRejectsMissingSecondMoments(t *testing.T) {
	// An SGD snapshot must not resume an Adam solver.
	src := data.NewSyntheticMNIST(8, 13)
	specs, _ := zoo.LeNet(src, zoo.Options{BatchSize: 8, Seed: 13})
	n, _ := net.New(specs, nil)
	sgd, err := solver.New(solver.Config{Type: solver.SGD, BaseLR: 0.01}, n)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSolver(&buf, sgd); err != nil {
		t.Fatal(err)
	}
	src2 := data.NewSyntheticMNIST(8, 13)
	specs2, _ := zoo.LeNet(src2, zoo.Options{BatchSize: 8, Seed: 13})
	n2, _ := net.New(specs2, nil)
	adam, err := solver.New(solver.Config{Type: solver.Adam, BaseLR: 0.001}, n2)
	if err != nil {
		t.Fatal(err)
	}
	if err := LoadSolver(&buf, adam); err == nil {
		t.Fatal("SGD snapshot accepted by Adam solver")
	}
}

// solverState copies every parameter, every history blob and the
// iteration counter of s.
func solverState(s *solver.Solver) [][]float32 {
	var st [][]float32
	for _, p := range s.Net().Params() {
		st = append(st, append([]float32(nil), p.Data()...))
	}
	for _, h := range append(s.History(), s.History2()...) {
		st = append(st, append([]float32(nil), h.Data()...))
	}
	return append(st, []float32{float32(s.Iter())})
}

// A load that is rejected must leave the solver exactly as it was: no
// parameter, history blob or iteration counter may be written before the
// last section the load needs has been checked. The guard's rollback
// target (LoadLatestValid) and dnntrain's final -snapshot both rely on it.
func TestRejectedLoadLeavesSolverUntouched(t *testing.T) {
	mk := func(seed uint64, cfg solver.Config) *solver.Solver {
		s, err := solver.New(cfg, buildNet(t, seed))
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	adamCfg := solver.Config{Type: solver.Adam, BaseLR: 0.001}
	sgd := mk(31, solver.Config{Type: solver.SGD, BaseLR: 0.01, Momentum: 0.9})
	sgd.Step(3)
	var sgdFile, netFile bytes.Buffer
	if err := SaveSolver(&sgdFile, sgd); err != nil {
		t.Fatal(err)
	}
	if err := SaveNet(&netFile, sgd.Net()); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		raw  []byte
		cfg  solver.Config
	}{
		{"sgd snapshot into adam", sgdFile.Bytes(), adamCfg},
		{"net snapshot into sgd", netFile.Bytes(), zoo.LeNetSolver()},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := mk(32, c.cfg)
			s.Step(2)
			want := solverState(s)
			if err := LoadSolver(bytes.NewReader(c.raw), s); err == nil {
				t.Fatal("load accepted")
			}
			got := solverState(s)
			for i := range want {
				if j, ok := sameBits(got[i], want[i]); !ok {
					t.Fatalf("rejected load wrote state %d (of %d) at element %d: %v, was %v",
						i, len(want), j, got[i][j], want[i][j])
				}
			}
		})
	}
}

// A rejected LoadNet leaves the parameters as they were, even when only a
// layer-state section, checked after the parameters, is missing.
func TestRejectedLoadNetLeavesParamsUntouched(t *testing.T) {
	mk := func(seed uint64) *net.Net {
		d, err := layers.NewData("data", microSource{}, 2)
		if err != nil {
			t.Fatal(err)
		}
		ip, err := layers.NewInnerProduct("ip", layers.IPConfig{NumOutput: 2, RNG: rng.New(seed, 0)})
		if err != nil {
			t.Fatal(err)
		}
		bn, err := layers.NewBatchNorm("bn", layers.BNConfig{})
		if err != nil {
			t.Fatal(err)
		}
		n, err := net.New([]net.LayerSpec{
			{Layer: d, Tops: []string{"data", "label"}},
			{Layer: ip, Bottoms: []string{"data"}, Tops: []string{"ip"}},
			{Layer: bn, Bottoms: []string{"ip"}, Tops: []string{"bn"}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	raw := writeSectionsV1(t, netSections(mk(1)))
	mut := bytes.Replace(raw, []byte(statePrefix+"bn__0"), []byte(statePrefix+"bX__0"), 1)
	n := mk(2)
	var want [][]float32
	for _, p := range n.Params() {
		want = append(want, append([]float32(nil), p.Data()...))
	}
	if err := LoadNet(bytes.NewReader(mut), n); err == nil || !strings.Contains(err.Error(), "missing layer state") {
		t.Fatalf("got %v, want a missing layer state error", err)
	}
	for i, p := range n.Params() {
		if j, ok := sameBits(p.Data(), want[i]); !ok {
			t.Fatalf("rejected load wrote param %d at element %d", i, j)
		}
	}
}

// sameBits reports the first index where got and want differ in bits.
func sameBits(got, want []float32) (int, bool) {
	if len(got) != len(want) {
		return 0, false
	}
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			return i, false
		}
	}
	return 0, true
}

func TestBatchNormStateSurvivesSnapshot(t *testing.T) {
	mk := func() *net.Net {
		src := data.NewSyntheticMNIST(64, 14)
		d, err := layers.NewData("data", src, 8)
		if err != nil {
			t.Fatal(err)
		}
		bn, err := layers.NewBatchNorm("bn", layers.BNConfig{Momentum: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		n, err := net.New([]net.LayerSpec{
			{Layer: d, Tops: []string{"data", "label"}},
			{Layer: bn, Bottoms: []string{"data"}, Tops: []string{"bn"}},
		}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	a := mk()
	// Accumulate non-trivial moving statistics.
	for i := 0; i < 5; i++ {
		a.Forward()
	}
	var buf bytes.Buffer
	if err := SaveNet(&buf, a); err != nil {
		t.Fatal(err)
	}
	b := mk()
	if err := LoadNet(&buf, b); err != nil {
		t.Fatal(err)
	}
	var aBN, bBN *layers.BatchNorm
	for _, l := range a.Layers() {
		if v, ok := l.(*layers.BatchNorm); ok {
			aBN = v
		}
	}
	for _, l := range b.Layers() {
		if v, ok := l.(*layers.BatchNorm); ok {
			bBN = v
		}
	}
	for si := range aBN.StateBlobs() {
		av := aBN.StateBlobs()[si].Data()
		bv := bBN.StateBlobs()[si].Data()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("BN state %d lost in snapshot", si)
			}
		}
	}
	// And it is non-trivial (the moving mean moved off zero).
	if aBN.StateBlobs()[0].AsumData() == 0 {
		t.Fatal("test premise broken: moving mean never updated")
	}
}

// microSource is a 4-pixel 2-class dataset: small enough that a solver
// snapshot of a net built on it is a few hundred bytes, so exhaustive
// per-byte corruption sweeps stay fast.
type microSource struct{}

func (microSource) Len() int           { return 4 }
func (microSource) SampleShape() []int { return []int{1, 2, 2} }
func (microSource) Classes() int       { return 2 }
func (microSource) Read(i int, out []float32) int {
	for j := range out {
		out[j] = float32(i*len(out)+j) / 16
	}
	return i % 2
}

// tinyNet builds a minimal data -> inner-product -> softmax-loss network
// over microSource. Its snapshot is tiny, so exhaustive corruption sweeps
// over every byte offset finish in milliseconds.
func tinyNet(t *testing.T, seed uint64) *net.Net {
	t.Helper()
	d, err := layers.NewData("data", microSource{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	ip, err := layers.NewInnerProduct("ip", layers.IPConfig{NumOutput: 2, RNG: rng.New(seed, 0)})
	if err != nil {
		t.Fatal(err)
	}
	n, err := net.New([]net.LayerSpec{
		{Layer: d, Tops: []string{"data", "label"}},
		{Layer: ip, Bottoms: []string{"data"}, Tops: []string{"ip"}},
		{Layer: layers.NewSoftmaxWithLoss("loss"), Bottoms: []string{"ip", "label"}, Tops: []string{"loss"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// writeSectionsV1 reproduces the legacy version-1 encoding (no per-section
// checksums) so compatibility is pinned against real v1 bytes, not against
// the current writer.
func writeSectionsV1(t *testing.T, secs []section) []byte {
	t.Helper()
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteByte(version1)
	binary.Write(&buf, binary.LittleEndian, uint32(len(secs)))
	for _, s := range secs {
		binary.Write(&buf, binary.LittleEndian, uint16(len(s.name)))
		buf.WriteString(s.name)
		buf.WriteByte(byte(len(s.shape)))
		for _, d := range s.shape {
			binary.Write(&buf, binary.LittleEndian, uint32(d))
		}
		binary.Write(&buf, binary.LittleEndian, s.data)
	}
	return buf.Bytes()
}

func TestV1SnapshotsStillLoad(t *testing.T) {
	a := tinyNet(t, 1)
	raw := writeSectionsV1(t, netSections(a))
	b := tinyNet(t, 2)
	for _, p := range b.Params() {
		for j := range p.Data() {
			p.Data()[j] = -7 // scribble so the load visibly overwrites
		}
	}
	if err := LoadNet(bytes.NewReader(raw), b); err != nil {
		t.Fatalf("v1 snapshot rejected: %v", err)
	}
	for i := range a.Params() {
		av, bv := a.Params()[i].Data(), b.Params()[i].Data()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("param %d differs after v1 load", i)
			}
		}
	}
}

func TestCurrentWriterEmitsV2(t *testing.T) {
	n := tinyNet(t, 1)
	var buf bytes.Buffer
	if err := SaveNet(&buf, n); err != nil {
		t.Fatal(err)
	}
	if got := buf.Bytes()[5]; got != version2 {
		t.Fatalf("writer emitted version %d, want %d", got, version2)
	}
}

// TestV2DetectsEverySingleByteCorruption is the acceptance property of the
// checksummed format: flipping ANY single byte of a v2 solver snapshot
// must make the load fail — never panic, never silently restore garbage.
func TestV2DetectsEverySingleByteCorruption(t *testing.T) {
	n := tinyNet(t, 3)
	s, err := solver.New(zoo.LeNetSolver(), n)
	if err != nil {
		t.Fatal(err)
	}
	s.Step(2)
	var buf bytes.Buffer
	if err := SaveSolver(&buf, s); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	mut := make([]byte, len(clean))
	// The target solver is reused: LoadSolver only needs to REJECT, and a
	// fresh target per offset would dominate the sweep's runtime.
	n2 := tinyNet(t, 4)
	s2, err := solver.New(zoo.LeNetSolver(), n2)
	if err != nil {
		t.Fatal(err)
	}
	for off := range clean {
		copy(mut, clean)
		mut[off] ^= 0xFF
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("offset %d: corrupt snapshot PANICKED: %v", off, r)
				}
			}()
			if err := LoadSolver(bytes.NewReader(mut), s2); err == nil {
				t.Fatalf("offset %d: single-byte corruption loaded silently", off)
			}
		}()
	}
}

func TestAtomicSaveLeavesNoTempFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.cgdnn")
	n := tinyNet(t, 5)
	if err := saveNetFile(path, n); err != nil {
		t.Fatal(err)
	}
	// Overwrite in place: the rename must replace, and no temp survives.
	if err := saveNetFile(path, n); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "model.cgdnn" {
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		t.Fatalf("directory not clean after atomic saves: %v", names)
	}
}

func TestAtomicSavePreservesOldFileOnFailure(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.cgdnn")
	if err := os.WriteFile(path, []byte("precious"), 0o644); err != nil {
		t.Fatal(err)
	}
	boom := func(w io.Writer) error {
		w.Write([]byte("partial"))
		return os.ErrClosed // simulated mid-write crash
	}
	if err := WriteFileAtomic(path, boom); err == nil {
		t.Fatal("failed write reported success")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "precious" {
		t.Fatalf("failed save clobbered the previous snapshot: %q", got)
	}
	entries, _ := os.ReadDir(dir)
	if len(entries) != 1 {
		t.Fatalf("temp file leaked after failed save: %d entries", len(entries))
	}
}

// TestHistoryRestoredExactly pins the satellite requirement: resuming
// restores not just parameters and the iteration counter, but the full
// update history (momentum buffers for SGD, accumulated squared gradients
// for AdaGrad) bit for bit.
func TestHistoryRestoredExactly(t *testing.T) {
	for _, cfg := range []solver.Config{
		{Type: solver.SGD, BaseLR: 0.01, Momentum: 0.9},
		{Type: solver.AdaGrad, BaseLR: 0.01},
	} {
		mk := func() *solver.Solver {
			src := data.NewSyntheticMNIST(8, 21) // one batch per epoch
			specs, err := zoo.LeNet(src, zoo.Options{BatchSize: 8, Seed: 21})
			if err != nil {
				t.Fatal(err)
			}
			n, err := net.New(specs, nil)
			if err != nil {
				t.Fatal(err)
			}
			s, err := solver.New(cfg, n)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		s1 := mk()
		s1.Step(6)
		var buf bytes.Buffer
		if err := SaveSolver(&buf, s1); err != nil {
			t.Fatal(err)
		}
		s2 := mk()
		if err := LoadSolver(bytes.NewReader(buf.Bytes()), s2); err != nil {
			t.Fatal(err)
		}
		for i := range s1.History() {
			h1, h2 := s1.History()[i].Data(), s2.History()[i].Data()
			nonzero := false
			for j := range h1 {
				if h1[j] != h2[j] {
					t.Fatalf("%s: history %d differs after restore", cfg.Type, i)
				}
				if h1[j] != 0 {
					nonzero = true
				}
			}
			if !nonzero {
				t.Fatalf("%s: history %d all zero — premise broken", cfg.Type, i)
			}
		}
		// And the trajectories coincide bit for bit.
		traceA := s1.Step(6)
		traceB := s2.Step(6)
		for i := range traceA {
			if traceA[i] != traceB[i] {
				t.Fatalf("%s: resumed trajectory diverged at %d", cfg.Type, i)
			}
		}
	}
}

// Direct and lowered convolution share one weight layout, so a snapshot
// written from the direct-conv net (what dnntrain built before zoo.Load
// made lowered the front ends' only path) resumes in the loader's lowered
// net — solver state included — and steps to the same loss within float
// tolerance.
func TestDirectConvSnapshotLoadsIntoLoadedNet(t *testing.T) {
	m, err := zoo.Load(zoo.Ref{Zoo: "lenet", Samples: 16, Seed: 4, Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	newSolver := func(specs []net.LayerSpec, err error) *solver.Solver {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		n, err := net.New(specs, nil)
		if err != nil {
			t.Fatal(err)
		}
		s, err := solver.New(m.Solver, n)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	direct := newSolver(zoo.LeNet(m.Source, zoo.Options{BatchSize: 8, Seed: 4}))
	direct.Step(2)
	path := filepath.Join(t.TempDir(), "direct.cgdnn")
	if err := SaveSolverFile(path, direct); err != nil {
		t.Fatal(err)
	}
	lowered := newSolver(m.Specs(m.Source, 0))
	if err := LoadSolverFile(path, lowered); err != nil {
		t.Fatal(err)
	}
	if lowered.Iter() != 2 {
		t.Fatalf("resumed at iteration %d, want 2", lowered.Iter())
	}
	// Both data cursors sit at batch 0 of the 2-batch epoch.
	dl, ll := direct.Step(1)[0], lowered.Step(1)[0]
	if rel := (dl - ll) / dl; rel > 1e-5 || rel < -1e-5 {
		t.Fatalf("loss after resume: lowered %v vs direct %v", ll, dl)
	}
}

// FuzzReadSections asserts the reader's no-panic contract on arbitrary
// bytes: corrupt input must produce errors, never a crash.
func FuzzReadSections(f *testing.F) {
	f.Add([]byte("CGDNN"))
	f.Add([]byte("CGDNN\x01\x01\x00\x00\x00"))
	f.Add([]byte("CGDNN\x02\x01\x00\x00\x00\x02\x00ab\x01\x04\x00\x00\x00"))
	var buf bytes.Buffer
	secs := []section{{name: "w", shape: []int{2, 2}, data: []float32{1, 2, 3, 4}}}
	if err := writeSections(&buf, secs); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) {
		secs, err := readSections(bytes.NewReader(raw))
		if err == nil && len(raw) < 10 {
			t.Fatalf("implausibly short input parsed: %d sections", len(secs))
		}
	})
}
