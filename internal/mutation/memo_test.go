package mutation

import (
	"strings"
	"sync"
	"testing"
)

// The full Table 1 study and its code attribution each run once per test
// binary; every test that looks at a device's results reads them from
// there. In -short mode, where the full study is skipped, a device's study
// runs alone.
var memo struct {
	rowsOnce  sync.Once
	rows      []Row
	rowsErr   error
	codesOnce sync.Once
	codes     map[string]CodeResult
	codesErr  error
}

// studyRows returns RunStudy("").
func studyRows(t *testing.T) []Row {
	t.Helper()
	memo.rowsOnce.Do(func() { memo.rows, memo.rowsErr = RunStudy("") })
	if memo.rowsErr != nil {
		t.Fatal(memo.rowsErr)
	}
	return memo.rows
}

// allDevilCodes returns DevilCodes("").
func allDevilCodes(t *testing.T) map[string]CodeResult {
	t.Helper()
	memo.codesOnce.Do(func() { memo.codes, memo.codesErr = DevilCodes("") })
	if memo.codesErr != nil {
		t.Fatal(memo.codesErr)
	}
	return memo.codes
}

// studyRow returns the Table 1 row of the one device whose name contains
// name.
func studyRow(t *testing.T, name string) Row {
	t.Helper()
	var rows []Row
	if testing.Short() {
		var err error
		if rows, err = RunStudy(name); err != nil {
			t.Fatal(err)
		}
	} else {
		rows = studyRows(t)
	}
	var out []Row
	for _, r := range rows {
		if matches(r.Device, name) {
			out = append(out, r)
		}
	}
	if len(out) != 1 {
		t.Fatalf("%d study rows match %q, want 1", len(out), name)
	}
	return out[0]
}

// devilCodes returns the code-attributed Devil row of the one device whose
// name contains name.
func devilCodes(t *testing.T, name string) CodeResult {
	t.Helper()
	var coded map[string]CodeResult
	if testing.Short() {
		var err error
		if coded, err = DevilCodes(name); err != nil {
			t.Fatal(err)
		}
	} else {
		coded = allDevilCodes(t)
	}
	var out []CodeResult
	for dev, r := range coded {
		if matches(dev, name) {
			out = append(out, r)
		}
	}
	if len(out) != 1 {
		t.Fatalf("%d devices match %q, want 1", len(out), name)
	}
	return out[0]
}

func matches(device, name string) bool {
	return strings.Contains(strings.ToLower(device), strings.ToLower(name))
}
