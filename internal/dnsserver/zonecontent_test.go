package dnsserver_test

import (
	"testing"

	"spfail/internal/dnsserver"
	"spfail/internal/population"
)

// TestBuildZonesContent pins what World.BuildZones stores for the worlds
// of the repository benchmark's workloads at seed 1: every owner's key
// and record bytes, in order, through one digest. The reference tests
// build their reference from the zone's own records, so they cannot see
// a build that stores a different record or another order within an
// owner; this test can. The values were recorded before Add took batches.
func TestBuildZonesContent(t *testing.T) {
	withPacks := func(spec population.Spec) population.Spec {
		for _, pack := range population.PackNames() {
			spec.Scenarios = append(spec.Scenarios, population.ScenarioPackRef{Name: pack, Weight: 0.08})
		}
		return spec
	}
	spec := func(scale float64) population.Spec {
		s := population.DefaultSpec()
		s.Seed, s.Scale = 1, scale
		return s
	}
	for _, tc := range []struct {
		world          string
		spec           population.Spec
		digest         string
		owners, stored int
	}{
		{"spoof", withPacks(spec(0.05)), "8d2f9535d9db972d647517fd8fe0614fbeef4f0e63c305af4e89d40d123c3450", 80936, 6798701},
		{"study", spec(0.01), "5e71654b4e83c8b37c0dd23a41bb658747e006d8eed7aabb8536589e981bc924", 9104, 718070},
		{"faults", spec(0.03), "bf4068e49486241b81bd78ddade628322ed2a217ca93003c115ebc6f6a5d8b94", 27125, 2147118},
	} {
		t.Run(tc.world, func(t *testing.T) {
			w, err := population.Generate(tc.spec)
			if err != nil {
				t.Fatal(err)
			}
			sum, owners, stored := dnsserver.ZoneDigest(w.BuildZones())
			if sum != tc.digest || owners != tc.owners || stored != tc.stored {
				t.Errorf("zone: digest %s, %d owners, %d stored bytes; want %s, %d, %d",
					sum, owners, stored, tc.digest, tc.owners, tc.stored)
			}
		})
	}
}
