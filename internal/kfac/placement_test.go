package kfac

// WorkerLoads aggregates the modeled eigendecomposition cost assigned to
// each worker. The spread between min and max load is what Table VI
// measures via min/max worker speedups.
func WorkerLoads(factors []FactorRef, assign []int, workers int) []float64 {
	loads := make([]float64, workers)
	for i, f := range factors {
		loads[assign[i]] += f.Cost()
	}
	return loads
}

// LoadStats returns the minimum, maximum and mean of non-trivial worker
// loads. Workers with zero assigned cost count toward min (idle workers are
// exactly the §IV scaling concern).
func LoadStats(loads []float64) (minLoad, maxLoad, mean float64) {
	if len(loads) == 0 {
		return 0, 0, 0
	}
	minLoad, maxLoad = loads[0], loads[0]
	var sum float64
	for _, l := range loads {
		if l < minLoad {
			minLoad = l
		}
		if l > maxLoad {
			maxLoad = l
		}
		sum += l
	}
	return minLoad, maxLoad, sum / float64(len(loads))
}
