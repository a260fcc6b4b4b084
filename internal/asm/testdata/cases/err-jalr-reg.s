_start:
	jalr 5
