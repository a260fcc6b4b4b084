_start:
	j nowhere
	frob
