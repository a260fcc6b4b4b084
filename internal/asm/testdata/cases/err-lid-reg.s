_start:
	lid f0, 5
