_start:
	fsqrt a0, f1
