package addr

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestParseASDecimal(t *testing.T) {
	cases := []struct {
		in   string
		want AS
	}{
		{"0", 0},
		{"1", 1},
		{"65535", 65535},
		{"4294967295", 4294967295},
	}
	for _, c := range cases {
		got, err := ParseAS(c.in)
		if err != nil {
			t.Fatalf("ParseAS(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseAS(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestParseASColon(t *testing.T) {
	cases := []struct {
		in   string
		want AS
	}{
		{"ffaa:0:1002", 0xffaa_0000_1002},
		{"ffaa:0:1101", 0xffaa_0000_1101},
		{"1:0:0", 0x1_0000_0000},
		{"ffff:ffff:ffff", MaxAS},
	}
	for _, c := range cases {
		got, err := ParseAS(c.in)
		if err != nil {
			t.Fatalf("ParseAS(%q): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("ParseAS(%q) = %#x, want %#x", c.in, uint64(got), uint64(c.want))
		}
	}
}

func TestParseASErrors(t *testing.T) {
	for _, in := range []string{
		"", "x", "1:2", "1:2:3:4", "ffaa::1002", "fffff:0:0",
		"281474976710656, ", "281474976710656", "-1", "1:2:zz",
	} {
		if _, err := ParseAS(in); err == nil {
			t.Errorf("ParseAS(%q): want error, got nil", in)
		}
	}
}

func TestASStringDecimalVsColon(t *testing.T) {
	if got := AS(64512).String(); got != "64512" {
		t.Errorf("AS(64512) = %q, want 64512", got)
	}
	if got := AS(0xffaa_0000_1002).String(); got != "ffaa:0:1002" {
		t.Errorf("AS ffaa:0:1002 rendered %q", got)
	}
	if got := AS(MaxAS + 1).String(); got == "" {
		t.Errorf("invalid AS should render a marker, got empty")
	}
}

func TestParseIA(t *testing.T) {
	ia, err := ParseIA("16-ffaa:0:1002")
	if err != nil {
		t.Fatal(err)
	}
	if ia.ISD != 16 || ia.AS != 0xffaa_0000_1002 {
		t.Errorf("ParseIA: got %+v", ia)
	}
	if s := ia.String(); s != "16-ffaa:0:1002" {
		t.Errorf("String: got %q", s)
	}
}

func TestParseIAErrors(t *testing.T) {
	for _, in := range []string{"", "16", "16-", "-ffaa:0:1", "99999-ffaa:0:1", "x-1"} {
		if _, err := ParseIA(in); err == nil {
			t.Errorf("ParseIA(%q): want error", in)
		}
	}
}

func TestIAZero(t *testing.T) {
	if !(IA{}).Zero() {
		t.Error("zero IA not Zero()")
	}
	if (IA{ISD: 1}).Zero() || (IA{AS: 1}).Zero() {
		t.Error("non-zero IA reported Zero()")
	}
}

func TestParseHost(t *testing.T) {
	h, err := ParseHost("16-ffaa:0:1002,[172.31.43.7]")
	if err != nil {
		t.Fatal(err)
	}
	if h.IA != MustParseIA("16-ffaa:0:1002") || h.Local != "172.31.43.7" {
		t.Errorf("got %+v", h)
	}
	if s := h.String(); s != "16-ffaa:0:1002,[172.31.43.7]" {
		t.Errorf("String: %q", s)
	}
	// Unbracketed form.
	h2, err := ParseHost("19-ffaa:0:1303,141.44.25.144")
	if err != nil {
		t.Fatal(err)
	}
	if h2.Local != "141.44.25.144" {
		t.Errorf("unbracketed local: %q", h2.Local)
	}
}

func TestParseHostErrors(t *testing.T) {
	for _, in := range []string{"", "16-ffaa:0:1002", "16-ffaa:0:1002,", "bad,[1.2.3.4]"} {
		if _, err := ParseHost(in); err == nil {
			t.Errorf("ParseHost(%q): want error", in)
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	for name, f := range map[string]func(){
		"AS":   func() { MustParseAS("zz") },
		"IA":   func() { MustParseIA("zz") },
		"Host": func() { MustParseHost("zz") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustParse%s: want panic", name)
				}
			}()
			f()
		}()
	}
}

// Property: String∘ParseAS is the identity on the canonical rendering of
// every valid AS number.
func TestASRoundTripQuick(t *testing.T) {
	f := func(v uint64) bool {
		a := AS(v & uint64(MaxAS))
		parsed, err := ParseAS(a.String())
		return err == nil && parsed == a
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: ParseIA∘String is the identity for all valid IAs.
func TestIARoundTripQuick(t *testing.T) {
	f := func(isd uint16, as uint64) bool {
		ia := IA{ISD: ISD(isd), AS: AS(as & uint64(MaxAS))}
		parsed, err := ParseIA(ia.String())
		return err == nil && parsed == ia
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: host round trip with random IPv4-looking locals.
func TestHostRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		h := Host{
			IA: IA{ISD: ISD(rng.Intn(1 << 16)), AS: AS(rng.Uint64() & uint64(MaxAS))},
			Local: "10." + itoa(rng.Intn(256)) + "." +
				itoa(rng.Intn(256)) + "." + itoa(rng.Intn(256)),
		}
		parsed, err := ParseHost(h.String())
		if err != nil || parsed != h {
			t.Fatalf("round trip %v: parsed=%v err=%v", h, parsed, err)
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [4]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// fmtIA and fmtAS are the fmt renderings String had before it moved to
// strconv appends; every stored hop_predicates string and fingerprint was
// produced by them, so the append forms must stay byte-identical.
func fmtAS(a AS) string {
	if a > MaxAS {
		return fmt.Sprintf("<invalid AS %d>", uint64(a))
	}
	if a < asDecimalMax {
		return fmt.Sprintf("%d", uint64(a))
	}
	return fmt.Sprintf("%x:%x:%x", uint16(a>>32), uint16(a>>16), uint16(a))
}

func fmtIA(ia IA) string { return fmt.Sprintf("%d-%s", ia.ISD, fmtAS(ia.AS)) }

func TestStringMatchesFmtRendering(t *testing.T) {
	ases := []AS{
		0, 1, 9, 10, 64512, asDecimalMax - 1, // decimal form
		asDecimalMax, 0x1_0000_0000, 0xffaa_0000_1002, 0xffaa_0001_0001, // colon form
		0x0001_0000_0000, 0x00ab_00cd_00ef, 0xffff_ffff_ffff, MaxAS, // zero groups, no padding
		MaxAS + 1, 1 << 60, // invalid marker
	}
	for _, as := range ases {
		if got, want := as.String(), fmtAS(as); got != want {
			t.Errorf("AS(%#x).String() = %q, fmt renders %q", uint64(as), got, want)
		}
		for _, isd := range []ISD{0, 1, 16, 19, 65535} {
			ia := IA{ISD: isd, AS: as}
			if got, want := ia.String(), fmtIA(ia); got != want {
				t.Errorf("%#v.String() = %q, fmt renders %q", ia, got, want)
			}
			// AppendTo extends, never overwrites.
			if got := string(ia.AppendTo([]byte("x "))); got != "x "+fmtIA(ia) {
				t.Errorf("%#v.AppendTo(\"x \") = %q", ia, got)
			}
		}
	}
}
