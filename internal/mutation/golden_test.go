package mutation

import (
	"maps"
	"testing"
)

// table1Golden pins every device's Table 1 counts (Lines, Sites, Mutants,
// Undetected for C, Devil and C_Devil). They were captured when each
// mutant was still built as a new text and checked from scratch, so they
// hold the spliced token streams and resumed checks to the same verdicts.
var table1Golden = []Row{
	{"Logitech Busmouse", Result{38, 119, 7200, 2061}, Result{37, 118, 4110, 150}, Result{20, 49, 2077, 303}},
	{"IDE (Intel PIIX4)", Result{63, 165, 9713, 3346}, Result{107, 244, 10785, 237}, Result{42, 88, 5268, 740}},
	{"Ethernet (NE2000)", Result{107, 317, 17783, 5394}, Result{112, 437, 15082, 185}, Result{60, 140, 7960, 1599}},
	{"Interrupt (i8259A)", Result{34, 94, 4664, 1553}, Result{54, 161, 5520, 67}, Result{30, 69, 3770, 422}},
	{"DMA (i8237A)", Result{30, 85, 4563, 1460}, Result{50, 139, 5300, 70}, Result{28, 51, 3802, 371}},
	{"Audio (CS4236B)", Result{37, 99, 5303, 1472}, Result{68, 149, 3844, 274}, Result{17, 28, 1487, 282}},
	{"Busmaster (PIIX4)", Result{31, 71, 3759, 843}, Result{30, 66, 2557, 61}, Result{24, 32, 2511, 33}},
	{"Video (Permedia2)", Result{43, 124, 9726, 4332}, Result{59, 195, 11001, 366}, Result{24, 63, 3164, 402}},
}

// devilCodesGolden pins DevilCodes: per device, the mutants detected by
// the interface rebuild and the per-code counts, captured with
// table1Golden.
var devilCodesGolden = map[string]struct {
	iface int
	codes CodeProfile
}{
	"Logitech Busmouse":  {897, CodeProfile{"E001": 214, "E101": 3, "E102": 1494, "E103": 337, "E104": 1221, "E106": 113, "E107": 112, "E201": 47, "E202": 67, "E203": 2, "E204": 57, "E206": 30, "E207": 5, "E208": 1}},
	"IDE (Intel PIIX4)":  {3293, CodeProfile{"E001": 73, "E102": 4248, "E103": 726, "E104": 1743, "E106": 229, "E107": 194, "E201": 80, "E202": 46, "E203": 88, "E204": 179, "E206": 53, "E207": 54, "E210": 4}},
	"Ethernet (NE2000)":  {2392, CodeProfile{"E001": 281, "E101": 37, "E102": 7386, "E103": 1134, "E104": 2518, "E106": 82, "E107": 759, "E201": 46, "E202": 46, "E203": 88, "E204": 97, "E206": 56, "E207": 302, "E208": 18, "E210": 40}},
	"Interrupt (i8259A)": {1402, CodeProfile{"E001": 227, "E101": 10, "E102": 2220, "E103": 442, "E104": 892, "E106": 154, "E107": 92, "E109": 227, "E201": 52, "E202": 76, "E203": 52, "E204": 100, "E206": 26, "E207": 30, "E208": 1}},
	"DMA (i8237A)":       {1319, CodeProfile{"E001": 208, "E101": 1, "E102": 2249, "E103": 633, "E104": 1333, "E106": 50, "E107": 40, "E109": 556, "E201": 27, "E202": 8, "E203": 16, "E204": 47, "E206": 14, "E207": 26}},
	"Audio (CS4236B)":    {948, CodeProfile{"E001": 173, "E101": 14, "E102": 983, "E103": 630, "E104": 658, "E105": 23, "E106": 89, "E107": 88, "E201": 59, "E202": 39, "E203": 29, "E204": 74, "E206": 28, "E210": 22}},
	"Busmaster (PIIX4)":  {968, CodeProfile{"E001": 14, "E102": 734, "E103": 259, "E104": 405, "E106": 46, "E107": 16, "E201": 64, "E202": 14, "E203": 13, "E204": 80, "E206": 2}},
	"Video (Permedia2)":  {1812, CodeProfile{"E001": 136, "E102": 4421, "E103": 1686, "E104": 2304, "E106": 93, "E107": 72, "E201": 64, "E202": 44, "E203": 10, "E204": 136, "E206": 35, "E207": 27}},
}

// TestTable1Golden pins the exact Table 1 counts of every device and the
// code attribution of every Devil row.
func TestTable1Golden(t *testing.T) {
	if testing.Short() {
		t.Skip("full mutation study in -short mode")
	}
	rows := studyRows(t)
	if len(rows) != len(table1Golden) {
		t.Fatalf("rows = %d, want %d", len(rows), len(table1Golden))
	}
	for i, want := range table1Golden {
		if rows[i] != want {
			t.Errorf("row %d:\n got %+v\nwant %+v", i, rows[i], want)
		}
	}
	coded := allDevilCodes(t)
	if len(coded) != len(devilCodesGolden) {
		t.Errorf("DevilCodes devices = %d, want %d", len(coded), len(devilCodesGolden))
	}
	for _, row := range rows {
		got, want := coded[row.Device], devilCodesGolden[row.Device]
		if got.Result != row.Devil {
			t.Errorf("%s: DevilCodes %+v, Devil row %+v", row.Device, got.Result, row.Devil)
		}
		if got.Interface != want.iface {
			t.Errorf("%s: interface-detected = %d, want %d", row.Device, got.Interface, want.iface)
		}
		if !maps.Equal(got.Codes, want.codes) {
			t.Errorf("%s: codes\n got %v\nwant %v", row.Device, got.Codes, want.codes)
		}
	}
}
