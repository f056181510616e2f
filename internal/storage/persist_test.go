package storage

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"

	"dvm/internal/bag"
	"dvm/internal/schema"
)

func buildRandomDB(t *testing.T, seed int64) *Database {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	db := NewDatabase()
	schemas := []*schema.Schema{
		schema.NewSchema(schema.Col("i", schema.TInt), schema.Col("s", schema.TString)),
		schema.NewSchema(schema.Col("f", schema.TFloat), schema.Col("b", schema.TBool), schema.Col("n", schema.TInt)),
	}
	for i, sch := range schemas {
		kind := External
		if i%2 == 1 {
			kind = Internal
		}
		name := string(rune('A' + i))
		tb, err := db.Create(name, sch, kind)
		if err != nil {
			t.Fatal(err)
		}
		data := bag.New()
		for j, n := 0, r.Intn(50); j < n; j++ {
			tu := make(schema.Tuple, sch.Len())
			for k := 0; k < sch.Len(); k++ {
				switch sch.Column(k).Type {
				case schema.TInt:
					if r.Intn(10) == 0 {
						tu[k] = schema.Null()
					} else {
						tu[k] = schema.Int(int64(r.Intn(100) - 50))
					}
				case schema.TFloat:
					tu[k] = schema.Float(float64(r.Intn(1000)) / 7)
				case schema.TString:
					tu[k] = schema.Str(strings.Repeat("x", r.Intn(5)) + "|'\"")
				case schema.TBool:
					tu[k] = schema.Bool(r.Intn(2) == 0)
				}
			}
			data.Add(tu, 1+r.Intn(3))
		}
		tb.Replace(data)
	}
	return db
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		db := buildRandomDB(t, seed)
		var buf bytes.Buffer
		if err := db.Save(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := Load(&buf)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got.Names()) != len(db.Names()) {
			t.Fatalf("table count mismatch: %v vs %v", got.Names(), db.Names())
		}
		for _, name := range db.Names() {
			orig, _ := db.Table(name)
			loaded, err := got.Table(name)
			if err != nil {
				t.Fatalf("seed %d: missing table %q", seed, name)
			}
			if loaded.Kind() != orig.Kind() {
				t.Fatalf("kind mismatch for %q", name)
			}
			if !loaded.Schema().Equal(orig.Schema()) {
				t.Fatalf("schema mismatch for %q: %s vs %s", name, loaded.Schema(), orig.Schema())
			}
			if !loaded.Data().Equal(orig.Data()) {
				t.Fatalf("data mismatch for %q:\n%v\nvs\n%v", name, loaded.Data(), orig.Data())
			}
		}
	}
}

func TestSaveLoadEmptyDatabase(t *testing.T) {
	var buf bytes.Buffer
	if err := NewDatabase().Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Names()) != 0 {
		t.Fatal("empty database grew tables")
	}
}

func TestLoadErrors(t *testing.T) {
	cases := map[string][]byte{
		"empty":     {},
		"bad magic": []byte("NOPE....."),
		"truncated": append([]byte("DVM1"), 0x02, 0x00, 0x00, 0x00),
	}
	for name, data := range cases {
		if _, err := Load(bytes.NewReader(data)); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	// Corrupt a valid snapshot mid-stream.
	db := buildRandomDB(t, 1)
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if len(raw) > 40 {
		if _, err := Load(bytes.NewReader(raw[:len(raw)/2])); err == nil {
			t.Error("truncated snapshot accepted")
		}
	}
}

// TestLoadRejectsDVM2 pins that the retired DVM2 snapshot format is
// refused with an error naming it, not misread as DVM1 or reported as
// generic bad magic.
func TestLoadRejectsDVM2(t *testing.T) {
	data := append([]byte("DVM2"), 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00)
	_, err := Load(bytes.NewReader(data))
	if err == nil {
		t.Fatal("DVM2 snapshot accepted")
	}
	if !strings.Contains(err.Error(), `"DVM2"`) {
		t.Fatalf("error does not name the format: %v", err)
	}
}

func TestSaveLoadPreservesValueEdgeCases(t *testing.T) {
	db := NewDatabase()
	sch := schema.NewSchema(schema.Col("v", schema.TFloat))
	tb, err := db.Create("t", sch, External)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []float64{0, -0.0, 1e300, -1e-300, 3.141592653589793} {
		if err := tb.Insert(schema.Row(f), 1); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := db.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	lt, _ := got.Table("t")
	if !lt.Data().Equal(tb.Data()) {
		t.Fatalf("float round trip failed:\n%v\nvs\n%v", lt.Data(), tb.Data())
	}
}
