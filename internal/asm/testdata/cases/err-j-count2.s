_start:
	j a, b
