_start:
	fadd f0, f32, f1
