package vcloud_test

import (
	"fmt"
	"log"
	"time"

	vcloud "vcloud"
)

// parkedCloud stands up the stationary parking-lot cloud the examples
// below submit into, with ten seconds for members to join.
func parkedCloud() (*vcloud.Scenario, *vcloud.Cloud, *vcloud.CloudStats) {
	s, err := vcloud.NewParkingLotScenario(vcloud.ParkingLotOptions{Seed: 7, Vehicles: 10})
	if err != nil {
		log.Fatal(err)
	}
	stats := &vcloud.CloudStats{}
	cloud, err := vcloud.DeployCloud(s, vcloud.Stationary, stats)
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Start(); err != nil {
		log.Fatal(err)
	}
	if err := s.RunFor(10 * time.Second); err != nil {
		log.Fatal(err)
	}
	return s, cloud, stats
}

// ExampleJobSpec is the README's multi-stage DAG job snippet: the
// optional "enrich" leaf may be abandoned without failing the job.
func ExampleJobSpec() {
	s, cloud, _ := parkedCloud()

	spec := vcloud.JobSpec{
		Stages: []vcloud.StageSpec{
			{Name: "sense", Ops: 1000, OutputBytes: 400},
			{Name: "detect", Ops: 3000, Deps: []int{0}},
			{Name: "enrich", Ops: 1200, Deps: []int{0}, Optional: true},
			{Name: "fuse", Ops: 1500, Deps: []int{1}},
		},
		ReplicaBudget: 4, // extra copies, dealt to critical-path stages
		Deadline:      s.Kernel.Now() + vcloud.Seconds(20),
	}
	cloud.SubmitJobAnywhere(spec, func(r vcloud.JobResult) {
		fmt.Println("job:", r.OK, r.Partial, r.Reason)
	})

	if err := s.RunFor(time.Minute); err != nil {
		log.Fatal(err)
	}
	// Output: job: true false
}

// ExampleNewGovernor is the README's congestion-aware placement
// snippet.
func ExampleNewGovernor() {
	s, cloud, stats := parkedCloud()
	dl := s.Kernel.Now() + vcloud.Seconds(10)
	done := func(r vcloud.TaskResult) { fmt.Println("task:", r.OK) }

	up, _ := vcloud.NewUplink(s, vcloud.UplinkParams{
		BaseRTT: 60 * time.Millisecond, BandwidthMbps: 8,
		LossProb: 0.02, Contended: true,
	})
	sender := up.NewSender(vcloud.BWEConfig{})
	remote, _ := vcloud.NewRemoteCloudSender("cloud", s, sender, 2e6, stats)
	gov, _ := vcloud.NewGovernor(s, vcloud.GovernorConfig{
		Tiers: []vcloud.GovernorTier{
			{Tier: vcloud.TierVehicle, Backend: vcloud.DeploymentBackend{D: cloud}, CPU: 4000},
			{Tier: vcloud.TierCloud, Backend: remote, CPU: 2e6,
				NominalBps: 8e6, BaseRTT: 60 * time.Millisecond, Sender: sender},
		},
	}, stats)
	gov.Submit(vcloud.Task{Ops: 1500, InputBytes: 40_000, Deadline: dl}, done)

	if err := s.RunFor(time.Minute); err != nil {
		log.Fatal(err)
	}
	// Output: task: true
}
