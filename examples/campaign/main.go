// Campaign runs a small-scale initial measurement over a generated
// population — the first stage of the paper's study — and prints the
// Table 3 outcome funnel plus the vulnerability breakdown it finds.
package main

import (
	"context"
	"fmt"
	"os"
	"time"

	"spfail/internal/clock"
	"spfail/internal/core"
	"spfail/internal/measure"
	"spfail/internal/population"
	"spfail/internal/report"
)

func main() {
	spec := population.DefaultSpec()
	spec.Scale = 0.002
	spec.Seed = 42
	world, err := population.Generate(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("generated world: %s domains on %s mail-server addresses\n",
		report.Count(len(world.Domains)), report.Count(len(world.Hosts)))

	sim := clock.NewSim(population.TInitial)
	rig, err := measure.NewRigFromOptions(context.Background(), measure.RigOptions{
		World: world,
		Clock: sim,
	})
	if err != nil {
		panic(err)
	}
	defer rig.Close()

	// Discover targets through the DNS, exactly as the paper does.
	var names []string
	for _, d := range world.Domains {
		names = append(names, d.Name)
	}
	targets := rig.ResolveTargets(context.Background(), names)
	addrs, rep := measure.UniqueAddrs(targets)
	fmt.Printf("resolved %s distinct addresses via MX/A lookups\n\n", report.Count(len(addrs)))

	campaign, err := measure.NewCampaign(rig, measure.Config{
		Suite:       "ex01",
		Concurrency: 100,
		BatchSize:   500,
		IOTimeout:   5 * time.Second,
	})
	if err != nil {
		panic(err)
	}
	results, err := campaign.MeasureAddrs(context.Background(), addrs, rep)
	if err != nil {
		panic(err)
	}
	outcomes := map[string]int{}
	vulnerable := 0
	for _, o := range results {
		outcomes[string(o.Status)]++
		if o.Vulnerable() {
			vulnerable++
		}
	}
	outcomes["vulnerable"] = vulnerable

	t := &report.Table{
		Title:   "Initial measurement outcomes",
		Headers: []string{"Outcome", "Addresses", "Share"},
	}
	total := len(addrs)
	for _, row := range []string{
		string(core.StatusConnectionRefused),
		string(core.StatusSMTPFailure),
		string(core.StatusSPFMeasured),
		string(core.StatusSPFNotMeasured),
		"vulnerable",
	} {
		t.AddRow(row, report.Count(outcomes[row]), report.Percent(outcomes[row], total))
	}
	t.Render(newStdout())
}

type stdoutWriter struct{}

func newStdout() stdoutWriter { return stdoutWriter{} }

func (stdoutWriter) Write(p []byte) (int, error) { return fmt.Print(string(p)) }
