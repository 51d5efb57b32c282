// Package ingest is the fault-tolerant loading layer between the on-disk
// profile formats and the analysis pipeline. The paper's pipeline is built
// for messy measurement data — medians over steps, ranks and repetitions
// exist because profiles are noisy — but a profiling campaign on a shared
// cluster also produces files that are outright broken: killed jobs leave
// truncated exports, full filesystems leave empty ones, converters emit
// NaN metrics. LoadDir is the one directory loader: it reads each file
// into a Set, decoding it with profile.Decoder or importer.ReadCSV, and
// returns the Set's Report. A Set can also be built file by file from
// profiles decoded elsewhere (edserve decodes each upload once, at
// admission) and reports exactly what LoadDir would. Errors are isolated
// per file:
//
//   - every file that fails to read, decode or validate is quarantined
//     into the Report with its path, failing stage and error, instead of
//     aborting the whole load (Lenient policy, the default) — or aborts
//     immediately under the Strict policy, preserving the historical
//     behavior;
//   - duplicate profiles — two files claiming the same (app,
//     configuration, rank, repetition) — are detected and the later file
//     quarantined, so retried jobs cannot double-count a measurement;
//   - after loading, the degradation Gate decides whether the surviving
//     set is still modelable: every application must keep at least the
//     paper's minimum number of distinct configurations (five, to
//     separate logarithmic, linear and polynomial growth). If not, Gate
//     returns one aggregate error listing every quarantined file; if so,
//     it reports warnings for configurations that lost files.
package ingest

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"extradeep/internal/importer"
	"extradeep/internal/measurement"
	"extradeep/internal/profile"
)

// Policy selects how per-file load failures are handled.
type Policy int

const (
	// Lenient quarantines files that fail to load and continues with the
	// rest. This is the default: one corrupted file must not discard an
	// entire measurement campaign.
	Lenient Policy = iota
	// Strict aborts on the first file that fails to load, the historical
	// all-or-nothing behavior.
	Strict
)

// String names the policy.
func (p Policy) String() string {
	if p == Strict {
		return "strict"
	}
	return "lenient"
}

// Stage locates where in the loading pipeline a file failed.
type Stage int

const (
	// StageRead covers I/O failures: the file could not be read at all.
	StageRead Stage = iota
	// StageDecode covers syntactic failures: the bytes are not a
	// well-formed JSON or CSV profile.
	StageDecode
	// StageValidate covers semantic failures: the profile decoded but
	// violates an invariant (non-finite metrics, malformed spans,
	// duplicate identity).
	StageValidate
)

// String names the stage.
func (s Stage) String() string {
	switch s {
	case StageRead:
		return "read"
	case StageDecode:
		return "decode"
	case StageValidate:
		return "validate"
	default:
		return "unknown"
	}
}

// Quarantined records one file excluded from the analysis.
type Quarantined struct {
	// Path is the file that failed.
	Path string
	// Stage is the loading stage the failure occurred in.
	Stage Stage
	// Err is the underlying error.
	Err error
}

// Error formats the quarantine entry as path: stage: cause.
func (q Quarantined) Error() string {
	return fmt.Sprintf("%s: %s: %v", q.Path, q.Stage, q.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (q Quarantined) Unwrap() error { return q.Err }

// Options tunes the ingestion behavior.
type Options struct {
	// Policy is Lenient (default) or Strict.
	Policy Policy
	// MinConfigurations is the per-application minimum of distinct
	// configurations the degradation gate requires; 0 means the paper's
	// measurement.MinModelingPoints.
	MinConfigurations int
}

func (o Options) minConfigs() int {
	if o.MinConfigurations <= 0 {
		return measurement.MinModelingPoints
	}
	return o.MinConfigurations
}

// Report is the outcome of one directory ingestion.
type Report struct {
	// Profiles are the successfully loaded profiles, in file-name order.
	Profiles []*profile.Profile
	// Quarantined are the files excluded from the analysis, in file-name
	// order.
	Quarantined []Quarantined
	// Warnings are degradation notes produced by Gate: the set is still
	// modelable, but less robust than a complete campaign.
	Warnings []string
	// Dir and Format record what was loaded.
	Dir    string
	Format string
}

// LoadDir loads every profile of the given format ("json" or "csv") from
// dir under the options' policy: it reads the directory into a Set and
// returns the Set's Report. An unreadable directory or an unknown format
// is an error under either policy; per-file failures are quarantined
// (Lenient) or returned (Strict).
func LoadDir(dir, format string, opts Options) (*Report, error) {
	set, err := LoadSet(dir, format, new(profile.Decoder))
	if err != nil {
		return nil, err
	}
	return set.Report(opts)
}

// Set is a name-keyed collection of profile files: each file name maps
// to its decoded profile or to the read, decode or validate failure it
// quarantines under. It owns the directory rules — file-name order and
// quarantine of a later-named duplicate — which Report applies, so a set
// built file by file (edserve adds each upload as it is admitted) reports
// exactly what LoadDir reports for the same files on disk. A Set is not
// safe for concurrent use; Report never modifies the stored profiles.
type Set struct {
	dir, format string
	files       map[string]setEntry
	// decoded counts the bytes LoadSet read and decoded into this set.
	decoded int64
}

// setEntry is one file of a Set: a profile with its identity, or the
// stage and error the file failed with.
type setEntry struct {
	p     *profile.Profile
	id    identity
	stage Stage
	err   error
}

// NewSet returns an empty set of format-"json" or "csv" files whose
// report names dir.
func NewSet(dir, format string) *Set {
	return &Set{dir: dir, format: format, files: map[string]setEntry{}}
}

// LoadSet reads every file of the given format in dir into a new set,
// decoding JSON with dec. Repeated event names and callpaths are then
// decoded once per Decoder, and reusing one read buffer is safe because
// no decoded profile aliases its input bytes (pinned by
// TestLoadDirNoAlias).
func LoadSet(dir, format string, dec *profile.Decoder) (*Set, error) {
	var ext string
	switch format {
	case "json":
		ext = ".json"
	case "csv":
		ext = ".csv"
	default:
		return nil, fmt.Errorf("ingest: unknown profile format %q (have json, csv)", format)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("ingest: listing %s: %w", dir, err)
	}
	s := &Set{dir: dir, format: format, files: make(map[string]setEntry, len(entries))}
	var buf bytes.Buffer
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ext) {
			continue
		}
		p, stage, err := s.readFile(&buf, dec, e.Name())
		s.put(e.Name(), p, stage, err)
	}
	return s, nil
}

// readFile reads and decodes one file of the set's directory, counting
// the bytes it decodes.
func (s *Set) readFile(buf *bytes.Buffer, dec *profile.Decoder, name string) (*profile.Profile, Stage, error) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, StageRead, err
	}
	defer f.Close()
	buf.Reset()
	if _, err := buf.ReadFrom(f); err != nil {
		return nil, StageRead, err
	}
	s.decoded += int64(buf.Len())
	return Decode(dec, buf.Bytes(), s.format)
}

// Add records name as a decoded and validated profile, replacing any
// entry under that name.
func (s *Set) Add(name string, p *profile.Profile) { s.put(name, p, 0, nil) }

func (s *Set) put(name string, p *profile.Profile, stage Stage, err error) {
	e := setEntry{p: p, stage: stage, err: err}
	if err == nil {
		e.id = identityOf(p)
	}
	s.files[name] = e
}

// Clone returns a copy of the set that shares its profiles. The copy's
// Decoded count is zero: building it decoded nothing.
func (s *Set) Clone() *Set {
	return &Set{dir: s.dir, format: s.format, files: maps.Clone(s.files)}
}

// Decoded returns the bytes LoadSet read and decoded into the set; 0 for
// a set built by Add or Clone.
func (s *Set) Decoded() int64 { return s.decoded }

// Report applies the directory rules under the options' policy: entries
// in file-name order, every failed file quarantined with its stage, and
// a profile whose identity an earlier-named file already provides
// quarantined as a duplicate. Under Strict the first quarantine is
// returned as the error instead. Each call returns a fresh Report.
func (s *Set) Report(opts Options) (*Report, error) {
	names := make([]string, 0, len(s.files))
	for name := range s.files {
		names = append(names, name)
	}
	sort.Strings(names)

	rep := &Report{Dir: s.dir, Format: s.format}
	seen := make(map[identity]string, len(names))
	for _, name := range names {
		e := s.files[name]
		stage, err := e.stage, e.err
		if err == nil {
			if prev, dup := seen[e.id]; dup {
				stage = StageValidate
				err = fmt.Errorf("duplicate profile: %s already provides %s x%s rank %d rep %d",
					filepath.Join(s.dir, prev), e.id.app, e.id.point, e.id.rank, e.id.rep)
			} else {
				seen[e.id] = name
			}
		}
		if err != nil {
			q := Quarantined{Path: filepath.Join(s.dir, name), Stage: stage, Err: err}
			if opts.Policy == Strict {
				return nil, fmt.Errorf("ingest: %w", q)
			}
			rep.Quarantined = append(rep.Quarantined, q)
			continue
		}
		rep.Profiles = append(rep.Profiles, e.p)
	}
	return rep, nil
}

// identity is the uniqueness key of a profile within a campaign.
type identity struct {
	app   string
	point string
	rank  int
	rep   int
}

func identityOf(p *profile.Profile) identity {
	return identity{app: p.App, point: measurement.Point(p.Config).Key(), rank: p.Rank, rep: p.Rep}
}

// Decode decodes and validates one profile held in memory, decoding JSON
// with dec, and classifies any failure with the decode and validate
// stages LoadDir uses for files on disk. The profile does not alias
// data.
func Decode(dec *profile.Decoder, data []byte, format string) (*profile.Profile, Stage, error) {
	if format == "json" {
		p, err := dec.Decode(data)
		if err != nil {
			return nil, StageDecode, err
		}
		if err := p.Validate(); err != nil {
			return nil, StageValidate, err
		}
		return p, 0, nil
	}
	p, err := importer.ReadCSV(bytes.NewReader(data))
	if err != nil {
		if errors.Is(err, importer.ErrFormat) {
			return nil, StageDecode, err
		}
		return nil, StageValidate, err
	}
	return p, 0, nil
}

// DecodeBytes is Decode with a fresh Decoder: the validation entry point
// for callers that receive profile bytes over a transport rather than
// from the filesystem. A rejected document carries the exact stage a
// directory ingestion would have quarantined it under.
func DecodeBytes(data []byte, format string) (*profile.Profile, Stage, error) {
	return Decode(new(profile.Decoder), data, format)
}

// Gate applies the degradation policy to the loaded set: it decides
// whether the surviving profiles are still modelable. On success it
// records warnings on the report (configurations that lost repetitions or
// disappeared entirely); on failure it returns a single aggregate error
// that names every quarantined file, so the operator sees the full damage
// in one message.
func (r *Report) Gate(opts Options) error {
	if len(r.Profiles) == 0 {
		base := fmt.Errorf("ingest: no usable profiles in %s (%d file(s) quarantined)", r.Dir, len(r.Quarantined))
		return r.aggregate(base)
	}
	groups := profile.GroupByConfig(r.Profiles)
	keys := profile.SortedKeys(groups)

	perApp := map[string]int{}
	for _, k := range keys {
		perApp[k.App]++
	}
	apps := make([]string, 0, len(perApp))
	for app := range perApp {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	var errs []error
	for _, app := range apps {
		if n := perApp[app]; n < opts.minConfigs() {
			errs = append(errs, fmt.Errorf(
				"ingest: %s has %d usable configuration(s) after quarantine; modeling needs at least %d",
				app, n, opts.minConfigs()))
		}
	}
	if len(errs) > 0 {
		return r.aggregate(errs...)
	}

	// The set is modelable; degrade gracefully with visible warnings.
	r.Warnings = r.Warnings[:0]

	// Configurations whose files were all quarantined: recover the
	// identity from the canonical file name where possible.
	alive := make(map[profile.ConfigKey]bool, len(keys))
	for _, k := range keys {
		alive[k] = true
	}
	lost := map[profile.ConfigKey]bool{}
	for _, q := range r.Quarantined {
		app, config, _, _, ok := profile.ParseFileName(q.Path)
		if !ok {
			continue
		}
		key := profile.ConfigKey{App: app, Point: measurement.Point(config).Key()}
		if !alive[key] && !lost[key] {
			lost[key] = true
			r.Warnings = append(r.Warnings, fmt.Sprintf(
				"configuration %s %s lost every profile to quarantine and is excluded from the model",
				key.App, key.Point))
		}
	}

	// Configurations that survived with fewer repetitions than the rest
	// of the campaign: the medians there rest on thinner evidence.
	maxReps := 0
	reps := make(map[profile.ConfigKey]int, len(keys))
	for _, k := range keys {
		distinct := map[int]bool{}
		for _, p := range groups[k] {
			distinct[p.Rep] = true
		}
		reps[k] = len(distinct)
		if len(distinct) > maxReps {
			maxReps = len(distinct)
		}
	}
	for _, k := range keys {
		if reps[k] < maxReps {
			r.Warnings = append(r.Warnings, fmt.Sprintf(
				"configuration %s %s has only %d repetition(s) while others have %d: its medians are less robust",
				k.App, k.Point, reps[k], maxReps))
		}
	}
	return nil
}

// GateError is the structured form of a gate refusal: the surviving set
// is not modelable, and the error names why (per-application refusals)
// plus every quarantined file with its typed loading stage. Historically
// this was an opaque errors.Join whose per-file stage classification
// survived only as text once callers wrapped it; the typed Quarantined
// field keeps the classification reachable through any number of
// fmt.Errorf("%w") wrappers via errors.As, so transports (edserve) can
// map quarantine stages to distinct error bodies. The rendered text is
// identical to the historical errors.Join output.
type GateError struct {
	// Refusals are the gate's own errors: the no-usable-profiles refusal
	// or one modelability refusal per application below the minimum.
	Refusals []error
	// Quarantined are the excluded files, in file-name order, each with
	// its typed Stage (read / decode / validate).
	Quarantined []Quarantined
}

// Error renders one line per refusal and per quarantined file, matching
// errors.Join's layout.
func (e *GateError) Error() string {
	var b strings.Builder
	for i, err := range e.Refusals {
		if i > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(err.Error())
	}
	for i, q := range e.Quarantined {
		if i > 0 || len(e.Refusals) > 0 {
			b.WriteByte('\n')
		}
		b.WriteString(q.Error())
	}
	return b.String()
}

// Unwrap exposes every refusal and quarantine entry to errors.Is/As.
func (e *GateError) Unwrap() []error {
	all := make([]error, 0, len(e.Refusals)+len(e.Quarantined))
	all = append(all, e.Refusals...)
	for _, q := range e.Quarantined {
		all = append(all, q)
	}
	return all
}

// aggregate builds the gate's structured multi-error from its own
// refusals plus one entry per quarantined file.
func (r *Report) aggregate(errs ...error) error {
	return &GateError{
		Refusals:    append([]error(nil), errs...),
		Quarantined: append([]Quarantined(nil), r.Quarantined...),
	}
}

// Summary renders the quarantine outcome for terminal output; it is empty
// when every file loaded cleanly.
func (r *Report) Summary() string {
	if len(r.Quarantined) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "quarantined %d of %d profile file(s):\n",
		len(r.Quarantined), len(r.Quarantined)+len(r.Profiles))
	for _, q := range r.Quarantined {
		fmt.Fprintf(&b, "  %s [%s stage]: %v\n", q.Path, q.Stage, q.Err)
	}
	return b.String()
}
