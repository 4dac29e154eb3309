package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/datatype"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/trace"
)

// TestPhaseAccountingAgrees: each phase has one instrumentation point,
// the timed span, so per rank the Stats phase times equal the sums of
// the matching trace histograms exactly, and every core_* counter
// equals the sum over ranks of its Stats field.
func TestPhaseAccountingAgrees(t *testing.T) {
	const P, blockcount, blocklen = 4, 40, 16
	d := int64(blockcount * blocklen)
	// The -ncmem ops use a holey memtype (8-byte elements every 16
	// bytes), so the listless engine moves data in one pass: the
	// sieving window and each IOP's own chunk, charged to CopyNs.
	holey, err := datatype.Resized(datatype.Double, 0, 16)
	if err != nil {
		t.Fatal(err)
	}
	writeAll := func(f *File, mt *datatype.Type, buf []byte) error {
		_, err := f.WriteAtAll(0, d/mt.Size(), mt, buf)
		return err
	}
	readAll := func(f *File, mt *datatype.Type, buf []byte) error {
		_, err := f.ReadAtAll(0, d/mt.Size(), mt, buf)
		return err
	}
	indep := func(f *File, mt *datatype.Type, buf []byte) error {
		if _, err := f.WriteAt(0, d/mt.Size(), mt, buf); err != nil {
			return err
		}
		_, err := f.ReadAt(0, d/mt.Size(), mt, buf)
		return err
	}
	ops := []struct {
		name       string
		collective bool
		mem        *datatype.Type
		run        func(f *File, mt *datatype.Type, buf []byte) error
	}{
		{"coll-write", true, datatype.Byte, writeAll},
		{"coll-read", true, datatype.Byte, readAll},
		{"indep", false, datatype.Byte, indep},
		{"coll-write-ncmem", true, holey, writeAll},
		{"coll-read-ncmem", true, holey, readAll},
		{"indep-ncmem", false, holey, indep},
	}
	for _, eng := range []Engine{Listless, ListBased} {
		for _, seq := range []bool{false, true} {
			for _, op := range ops {
				t.Run(fmt.Sprintf("%v/sequential=%v/%s", eng, seq, op.name), func(t *testing.T) {
					col := trace.NewCollector(trace.DefaultBufSize)
					reg := obs.NewRegistry()
					mem := storage.NewMem()
					if _, err := mem.WriteAt(pattern(P, P*d), 0); err != nil {
						t.Fatal(err)
					}
					sh := NewShared(mem)
					opts := Options{Engine: eng, CollBufSize: 192, SieveBufSize: 256,
						DisableCollPipeline: seq, Trace: col, Metrics: reg}
					stats := make([]Stats, P)
					_, err := mpi.RunWithOptions(P, mpi.RunOptions{Trace: col}, func(p *mpi.Proc) {
						f, err := Open(p, sh, opts)
						if err != nil {
							panic(err)
						}
						defer f.Close()
						if err := f.SetView(0, datatype.Byte, noncontigTypeP(p.Rank(), P, blockcount, blocklen)); err != nil {
							panic(err)
						}
						buf := pattern(p.Rank(), d/op.mem.Size()*op.mem.Extent())
						if err := op.run(f, op.mem, buf); err != nil {
							panic(err)
						}
						stats[p.Rank()] = f.Stats
					})
					if err != nil {
						t.Fatal(err)
					}

					var total Stats
					for r, s := range stats {
						m := col.Tracer(r).Metrics()
						sum := func(phs ...trace.Phase) (ns int64) {
							for _, ph := range phs {
								if h := m.Hist(ph); h != nil {
									ns += h.Sum()
								}
							}
							return ns
						}
						if got := sum(trace.PhaseExchange); s.ExchangeNs != got {
							t.Errorf("rank %d: ExchangeNs %d, coll.exchange spans %d", r, s.ExchangeNs, got)
						}
						if got := sum(trace.PhaseCopy); s.CopyNs != got {
							t.Errorf("rank %d: CopyNs %d, coll.copy spans %d", r, s.CopyNs, got)
						}
						if got := sum(trace.PhasePreRead, trace.PhaseWriteBack); s.StorageNs != got {
							t.Errorf("rank %d: StorageNs %d, storage.pre-read+write-back spans %d", r, s.StorageNs, got)
						}
						for k, v := range s.vals() {
							total.vals()[k] += v
						}
					}
					for k, row := range statTable {
						if got := reg.Counter(row.metric, row.help).Value(); got != total.vals()[k] {
							t.Errorf("%s = %d, sum of Stats.%s over ranks = %d", row.metric, got, row.field, total.vals()[k])
						}
					}
					// The equalities above must not hold vacuously.
					if op.collective && (total.ExchangeNs == 0 || total.CopyNs == 0 || total.StorageNs == 0 || total.Windows == 0) {
						t.Errorf("collective recorded no phase time: %+v", total)
					}
					if !op.collective && (total.SieveReads == 0 || total.SieveWrites == 0 || total.BytesWritten != P*d) {
						t.Errorf("independent access not counted: %+v", total)
					}
					if oneP := eng == Listless && op.mem != datatype.Byte; oneP != (total.MovedBytes > 0) {
						t.Errorf("MovedBytes %d: one-pass path expected %v", total.MovedBytes, oneP)
					}
				})
			}
		}
	}
}

// TestStatsFieldCoverage: every Stats field has exactly one counter-table
// row, at its own index, and Sub and String cover every field.
func TestStatsFieldCoverage(t *testing.T) {
	typ := reflect.TypeOf(Stats{})
	if typ.NumField() != len(statTable) {
		t.Fatalf("Stats has %d fields, statTable %d rows", typ.NumField(), len(statTable))
	}
	rows := map[string]int{}
	for _, row := range statTable {
		rows[row.field]++
	}
	for i := 0; i < typ.NumField(); i++ {
		fld := typ.Field(i)
		if fld.Type.Kind() != reflect.Int64 {
			t.Errorf("Stats.%s is %v, want int64", fld.Name, fld.Type)
		}
		if rows[fld.Name] != 1 || statTable[i].field != fld.Name {
			t.Errorf("Stats.%s: %d rows, row %d is %q", fld.Name, rows[fld.Name], i, statTable[i].field)
		}
	}

	var now, prev, all Stats
	nv, pv := reflect.ValueOf(&now).Elem(), reflect.ValueOf(&prev).Elem()
	for i := 0; i < typ.NumField(); i++ {
		nv.Field(i).SetInt(int64(1000*(i+1) + 7))
		pv.Field(i).SetInt(int64(i + 1))
		reflect.ValueOf(&all).Elem().Field(i).SetInt(int64(i+1) * 1e6)
	}
	dv := reflect.ValueOf(now.Sub(prev))
	for i := 0; i < typ.NumField(); i++ {
		if got, want := dv.Field(i).Int(), int64(999*(i+1)+7); got != want {
			t.Errorf("Sub: %s = %d, want %d", typ.Field(i).Name, got, want)
		}
	}

	// Each field alone renders as its own distinct item, and the item
	// appears in the rendering of all fields together.
	full := all.String()
	seen := map[string]string{}
	for i := 0; i < typ.NumField(); i++ {
		var one Stats
		reflect.ValueOf(&one).Elem().Field(i).SetInt(int64(i+1) * 1e6)
		item := strings.TrimSpace(one.String())
		name := typ.Field(i).Name
		if item == "" {
			t.Errorf("String omits %s", name)
			continue
		}
		if other, dup := seen[item]; dup {
			t.Errorf("String renders %s and %s the same: %q", name, other, item)
		}
		seen[item] = name
		if !strings.Contains(full, item) {
			t.Errorf("String of all fields omits %s (%q):\n%s", name, item, full)
		}
	}
}
