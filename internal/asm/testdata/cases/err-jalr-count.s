_start:
	jalr
