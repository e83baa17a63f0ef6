package profiles

import (
	"reflect"
	"testing"

	"nbctune/internal/chaos"
)

func TestAllShippedProfilesValidate(t *testing.T) {
	names := Names()
	if len(names) < 3 {
		t.Fatalf("expected at least 3 shipped profiles, have %v", names)
	}
	for _, n := range names {
		p, err := ByName(n)
		if err != nil {
			t.Fatalf("ByName(%q): %v", n, err)
		}
		if p == nil {
			t.Fatalf("ByName(%q) returned nil profile", n)
		}
		if p.Name != n {
			t.Errorf("profile %q carries Name %q", n, p.Name)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("profile %q invalid: %v", n, err)
		}
		if reflect.DeepEqual(*p, chaos.Profile{Name: n}) {
			t.Errorf("profile %q perturbs nothing", n)
		}
		if _, err := chaos.NewInjector(*p, 1, 8, 4); err != nil {
			t.Errorf("profile %q: NewInjector: %v", n, err)
		}
	}
}

func TestOffResolvesToNil(t *testing.T) {
	for _, n := range []string{"", "off"} {
		p, err := ByName(n)
		if err != nil || p != nil {
			t.Fatalf("ByName(%q) = (%v, %v), want (nil, nil)", n, p, err)
		}
	}
	if _, err := ByName("no-such-profile"); err == nil {
		t.Fatal("unknown profile name did not error")
	}
}

func TestByNameReturnsFreshValues(t *testing.T) {
	a, _ := ByName("regime-shift")
	b, _ := ByName("regime-shift")
	if len(a.Shifts) == 0 {
		t.Fatal("regime-shift has no shifts")
	}
	a.Shifts[0].At = 999
	if b.Shifts[0].At == 999 {
		t.Fatal("ByName aliases the Shifts slice across calls")
	}
}
